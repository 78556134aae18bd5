package graft

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graft/internal/algorithms"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/gui"
	"graft/internal/metrics"
	"graft/internal/pregel"
)

// TestRunWritesJobMetrics: a job debugged through graft.RunAlgorithm,
// not only one submitted to a long-lived Session, leaves a job.metrics
// beside its trace, with one row per superstep, and the GUI renders its
// dashboard from it.
func TestRunWritesJobMetrics(t *testing.T) {
	store := NewStore(NewMemFS(), "traces")
	res, err := RunAlgorithm(graphgen.RegularBipartite(60, 3), algorithms.NewGraphColoring(1), RunOptions{
		JobID: "gc-lib",
		Store: store,
		Debug: &DebugConfig{CaptureIDs: []VertexID{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath("gc-lib"))
	if err != nil {
		t.Fatalf("job.metrics: %v", err)
	}
	if len(jm.Supersteps) != res.Stats.Supersteps || jm.Reason != res.Stats.Reason.String() {
		t.Errorf("job.metrics has %d supersteps, reason %q; the run had %d, %v",
			len(jm.Supersteps), jm.Reason, res.Stats.Supersteps, res.Stats.Reason)
	}

	ts := httptest.NewServer(gui.NewServer(store).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/job/gc-lib/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), "No metrics were recorded") {
		t.Errorf("GET /job/gc-lib/metrics = %d without a dashboard:\n%s", resp.StatusCode, body)
	}
}

// holdAt blocks the coordinator at the end of one superstep until the
// test has looked at the job's live registry.
type holdAt struct {
	superstep         int
	reached, released chan struct{}
}

func (h *holdAt) JobStarted(pregel.JobInfo)                  {}
func (h *holdAt) SuperstepStarted(int, pregel.SuperstepInfo) {}
func (h *holdAt) JobFinished(*pregel.Stats, error)           {}
func (h *holdAt) SuperstepFinished(superstep int, _ pregel.SuperstepStats) {
	if superstep == h.superstep {
		close(h.reached)
		<-h.released
	}
}

// TestJobRegistersStoreCounters: the storage a job writes to counts on
// its registry without the caller wiring anything. A replicated
// cluster holding the trace shows its traffic in job.metrics' DFS row,
// and a fault-injecting checkpoint store shows the faults it absorbed
// while the job still runs.
func TestJobRegistersStoreCounters(t *testing.T) {
	store := NewStore(NewCluster(4, 2, 0), "traces")
	if _, err := RunAlgorithm(graphgen.RegularBipartite(60, 3), algorithms.NewConnectedComponents(), RunOptions{
		JobID: "cc-dfs",
		Store: store,
		Debug: &DebugConfig{CaptureAllActive: true},
	}); err != nil {
		t.Fatal(err)
	}
	jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath("cc-dfs"))
	if err != nil {
		t.Fatal(err)
	}
	if jm.DFS == nil || jm.DFS.BytesWritten <= 0 {
		t.Errorf("job.metrics DFS row = %+v, want the cluster's bytes written", jm.DFS)
	}

	ckpt := NewRetryFS(NewFaultFS(NewMemFS(), faults.ChaosPlan(7, 0.5)), 7)
	ckpt.Sleep = func(time.Duration) {}
	hold := &holdAt{superstep: 1, reached: make(chan struct{}), released: make(chan struct{})}
	sess, err := NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	j, err := sess.SubmitAlgorithm(context.Background(), graphgen.RegularBipartite(60, 3), algorithms.NewConnectedComponents(),
		RunOptions{Engine: EngineConfig{CheckpointEvery: 1, CheckpointFS: ckpt, CheckpointPrefix: "ckpt/", Listener: hold}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hold.reached:
	case <-j.Done():
		t.Fatalf("job ended before superstep %d: %v", hold.superstep, j.Err())
	}
	live := j.Metrics().Snapshot()
	close(hold.released)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !live.Running || live.Faults.Injected == 0 || live.Faults.Retries == 0 {
		t.Errorf("live snapshot: running=%v faults %+v, want the checkpoint store's injected faults and retries",
			live.Running, live.Faults)
	}
}
