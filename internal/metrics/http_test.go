package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"graft/internal/pregel"
)

// seededRegistry returns a registry mid-run with two supersteps folded.
func seededRegistry() *Registry {
	reg := NewRegistry("job-http", "pagerank")
	reg.JobStarted(pregel.JobInfo{NumWorkers: 4, NumVertices: 100, NumEdges: 250})
	for i := 0; i < 2; i++ {
		reg.SuperstepFinished(i, pregel.SuperstepStats{
			Superstep:   i,
			ActiveAtEnd: 100,
			Counters: pregel.Counters{
				MessagesSent:      250,
				VerticesProcessed: 100,
				ComputeTime:       2 * time.Millisecond,
				BarrierWait:       time.Millisecond,
				CaptureTime:       100 * time.Microsecond,
			},
			ComputeSkew: 1.2,
			Straggler:   3,
		})
	}
	return reg
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestMetricsEndpointShape(t *testing.T) {
	ts := httptest.NewServer(NewMux(seededRegistry(), MuxOptions{}))
	defer ts.Close()

	code, body := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	var jm JobMetrics
	if err := json.Unmarshal(body, &jm); err != nil {
		t.Fatalf("/metrics is not valid JobMetrics JSON: %v\n%s", err, body)
	}
	if jm.JobID != "job-http" || !jm.Running || len(jm.Supersteps) != 2 {
		t.Errorf("unexpected snapshot: job=%q running=%v supersteps=%d", jm.JobID, jm.Running, len(jm.Supersteps))
	}
	if jm.Totals.VerticesProcessed != 200 || jm.Totals.MessagesSent != 500 {
		t.Errorf("totals not folded: %+v", jm.Totals)
	}
	if jm.Supersteps[0].Straggler != 3 || jm.Supersteps[0].ComputeSkew != 1.2 {
		t.Errorf("skew fields lost in transit: %+v", jm.Supersteps[0])
	}
}

func TestDebugVarsShape(t *testing.T) {
	ts := httptest.NewServer(NewMux(seededRegistry(), MuxOptions{}))
	defer ts.Close()

	code, body := getBody(t, ts, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"graft.job_id", "graft.supersteps", "graft.vertices_processed",
		"graft.compute_ns", "graft.capture_overhead", "graft.max_compute_skew",
		"graft.faults.injected", "runtime.goroutines",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	if vars["graft.job_id"] != "job-http" {
		t.Errorf("graft.job_id = %v", vars["graft.job_id"])
	}
}

func TestMuxLivenessAndPprofGating(t *testing.T) {
	ts := httptest.NewServer(NewMux(seededRegistry(), MuxOptions{}))
	defer ts.Close()
	if code, _ := getBody(t, ts, "/"); code != http.StatusOK {
		t.Errorf("GET / = %d", code)
	}
	if code, _ := getBody(t, ts, "/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof mounted without MuxOptions.Pprof")
	}

	tsP := httptest.NewServer(NewMux(seededRegistry(), MuxOptions{Pprof: true}))
	defer tsP.Close()
	if code, _ := getBody(t, tsP, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ with Pprof on = %d", code)
	}
}
