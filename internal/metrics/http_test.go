package metrics

import (
	"bytes"
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
	stats := &pregel.Stats{}
	reg.JobStarted(pregel.JobInfo{NumWorkers: 4, NumVertices: 100, NumEdges: 250, Stats: stats})
	for i := 0; i < 2; i++ {
		stats.PerSuperstep = append(stats.PerSuperstep, pregel.SuperstepStats{
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
		reg.SuperstepFinished(i, stats.PerSuperstep[i])
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
	reg := seededRegistry()
	ts := httptest.NewServer(http.HandlerFunc(reg.ServeMetrics))
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
	// One encoding: /metrics serves the bytes job.metrics holds.
	if want, err := MarshalJobMetrics(reg.Snapshot()); err != nil || !bytes.Equal(body, append(want, '\n')) {
		t.Errorf("/metrics is not MarshalJobMetrics' document (err %v):\n%s", err, body)
	}
}
