package metrics

import "net/http"

// ServeMetrics handles GET /metrics: the job's JobMetrics document,
// valid at any point of the run.
func (r *Registry) ServeMetrics(w http.ResponseWriter, req *http.Request) {
	b, err := MarshalJobMetrics(r.Snapshot())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}
