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
	"graft/internal/dfs"
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

// TestJobStorageCountersAreTheJobs: jobs run in turn on one store each
// count only their own storage traffic, not the store's lifetime
// totals. A job's DFS row is what the cluster wrote while it ran, save
// its job.metrics, which is written after the row it records.
func TestJobStorageCountersAreTheJobs(t *testing.T) {
	cluster := NewCluster(4, 2, 0)
	store := NewStore(cluster, "traces")
	run := func(jobID string) (row, metricsBytes int64) {
		t.Helper()
		if _, err := RunAlgorithm(graphgen.RegularBipartite(60, 3), algorithms.NewGraphColoring(1), RunOptions{
			JobID: jobID,
			Store: store,
			Debug: &DebugConfig{CaptureAllActive: true},
		}); err != nil {
			t.Fatal(err)
		}
		raw, err := dfs.ReadFile(cluster, store.MetricsPath(jobID))
		if err != nil {
			t.Fatal(err)
		}
		jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath(jobID))
		if err != nil || jm.DFS == nil {
			t.Fatalf("job %s: job.metrics DFS row = %v, %v", jobID, jm.DFS, err)
		}
		// Every block of job.metrics is stored on both replicas.
		return jm.DFS.BytesWritten, 2 * int64(len(raw))
	}
	rowA, metricsA := run("a")
	afterA := cluster.Stats().BytesWritten
	rowB, metricsB := run("b")
	afterB := cluster.Stats().BytesWritten
	if rowA != afterA-metricsA {
		t.Errorf("job a's DFS row has %d bytes written; the cluster wrote %d for it", rowA, afterA-metricsA)
	}
	if want := afterB - afterA - metricsB; rowB != want {
		t.Errorf("job b's DFS row has %d bytes written; the cluster wrote %d for it (%d before it)", rowB, want, afterA)
	}
}

// faultsAtFinish records, in JobFinished, the job's Stats.Faults and
// what its fault-injecting and retrying layers counted at that moment.
type faultsAtFinish struct {
	injector  *FaultFS
	retrier   *RetryFS
	got, want pregel.FaultStats
}

func (f *faultsAtFinish) JobStarted(pregel.JobInfo)                    {}
func (f *faultsAtFinish) SuperstepStarted(int, pregel.SuperstepInfo)   {}
func (f *faultsAtFinish) SuperstepFinished(int, pregel.SuperstepStats) {}
func (f *faultsAtFinish) JobFinished(stats *pregel.Stats, _ error) {
	f.got = stats.Faults
	r := f.retrier.FaultStats()
	f.want = pregel.FaultStats{Injected: f.injector.FaultStats().Injected, Retries: r.Retries, Backoff: r.Backoff}
}

// TestStorageCountedOnce: every storage layer under a job's checkpoint
// and trace stores counts once in Stats.Faults and job.metrics, however
// the stores share or wrap it.
func TestStorageCountedOnce(t *testing.T) {
	g := func() *Graph { return graphgen.RegularBipartite(60, 3) }
	readMetrics := func(t *testing.T, store *Store, jobID string) metrics.JobMetrics {
		t.Helper()
		jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath(jobID))
		if err != nil {
			t.Fatal(err)
		}
		return jm
	}

	t.Run("one chain as trace and checkpoint store", func(t *testing.T) {
		ffs := NewFaultFS(NewMemFS(), faults.ChaosPlan(7, 0.5))
		fs := NewRetryFS(ffs, 7)
		fs.Sleep = func(time.Duration) {}
		store := NewStore(fs, "traces")
		probe := &faultsAtFinish{injector: ffs, retrier: fs}
		res, err := RunAlgorithm(g(), algorithms.NewConnectedComponents(), RunOptions{
			JobID:  "cc-shared",
			Store:  store,
			Debug:  &DebugConfig{CaptureAllActive: true},
			Engine: EngineConfig{CheckpointEvery: 1, CheckpointFS: fs, CheckpointPrefix: "ckpt/", Listener: probe},
		})
		if err != nil {
			t.Fatal(err)
		}
		if probe.want.Injected == 0 || probe.want.Retries == 0 {
			t.Fatalf("the store absorbed no faults: %+v", probe.want)
		}
		got, want := probe.got, probe.want
		if got.Injected != want.Injected || got.Retries != want.Retries || got.Backoff != want.Backoff {
			t.Errorf("Stats.Faults in JobFinished: injected=%d retries=%d backoff=%v; the file system counted %d, %d, %v",
				got.Injected, got.Retries, got.Backoff, want.Injected, want.Retries, want.Backoff)
		}
		if jm := readMetrics(t, store, "cc-shared"); jm.Faults != res.Stats.Faults {
			t.Errorf("job.metrics faults %+v, Stats.Faults %+v", jm.Faults, res.Stats.Faults)
		}
	})

	t.Run("retry layer over a cluster", func(t *testing.T) {
		store := NewStore(NewRetryFS(NewCluster(4, 2, 0), 1), "traces")
		if _, err := RunAlgorithm(g(), algorithms.NewConnectedComponents(), RunOptions{
			JobID: "cc-wrapped",
			Store: store,
			Debug: &DebugConfig{CaptureAllActive: true},
		}); err != nil {
			t.Fatal(err)
		}
		if jm := readMetrics(t, store, "cc-wrapped"); jm.DFS == nil || jm.DFS.BytesWritten <= 0 {
			t.Errorf("job.metrics DFS row = %+v, want the cluster's bytes written", jm.DFS)
		}
	})

	t.Run("two chains over one cluster", func(t *testing.T) {
		cluster := NewCluster(4, 2, 8<<10)
		ckptFS := NewRetryFS(NewFaultFS(cluster, faults.ChaosPlan(42, 0.3)), 42)
		ckptFS.Sleep = func(time.Duration) {}
		traceFS := NewRetryFS(NewFaultFS(cluster, faults.ChaosPlan(43, 0.3)), 43)
		traceFS.Sleep = func(time.Duration) {}
		store := NewStore(traceFS, "chaos")
		if _, err := RunAlgorithm(g(), algorithms.NewConnectedComponents(), RunOptions{
			JobID:  "cc-chains",
			Store:  store,
			Debug:  &DebugConfig{CaptureAllActive: true},
			Engine: EngineConfig{CheckpointEvery: 2, CheckpointFS: ckptFS, CheckpointPrefix: "ckpt/"},
		}); err != nil {
			t.Fatal(err)
		}
		jm := readMetrics(t, store, "cc-chains")
		if written := cluster.Stats().BytesWritten; jm.DFS == nil || jm.DFS.BytesWritten <= 0 || jm.DFS.BytesWritten > written {
			t.Errorf("job.metrics DFS row = %+v; the cluster wrote %d bytes in all", jm.DFS, written)
		}
	})
}
