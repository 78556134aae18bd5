package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// ServeMetrics handles GET /metrics: the full JobMetrics snapshot as
// one JSON document, valid at any point of the run.
func (r *Registry) ServeMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(r.Snapshot())
}

// ServeVars handles GET /debug/vars: an expvar-style flat map of the
// table's rows plus Go runtime counters, for scrapers that want
// key/value pairs rather than the nested document.
func (r *Registry) ServeVars(w http.ResponseWriter, req *http.Request) {
	snap := r.Snapshot()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	vars := map[string]any{
		"runtime.goroutines": runtime.NumGoroutine(),
		"runtime.heap_alloc": mem.HeapAlloc,
		"runtime.num_gc":     mem.NumGC,
	}
	for _, it := range Items(&snap) {
		if it.Raw != nil && !it.NoVars {
			vars["graft."+it.Key] = it.Raw
		}
	}
	for kind, n := range snap.AnomalyCounts {
		vars["graft.anomalies."+kind] = n
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(vars)
}

// MuxOptions configures NewMux.
type MuxOptions struct {
	// Pprof also mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewMux returns the metrics mux `graft run -metrics-addr` serves:
// /metrics, /debug/vars, a liveness root, and optionally the pprof
// profiler.
func NewMux(r *Registry, opts MuxOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", r.ServeMetrics)
	mux.HandleFunc("GET /debug/vars", r.ServeVars)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"service":   "graft-metrics",
			"endpoints": []string{"/metrics", "/debug/vars"},
			"time":      time.Now().UTC().Format(time.RFC3339),
		})
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
