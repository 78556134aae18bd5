package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
)

var update = flag.Bool("update", false, "rewrite golden files")

// ccCompute is the same HCC used by the engine tests: propagate the
// minimum vertex ID along edges until no label changes.
var ccCompute = pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	if ctx.Superstep() == 0 {
		v.SetValue(pregel.NewLong(int64(v.ID())))
		ctx.SendMessageToAllEdges(v, pregel.NewLong(int64(v.ID())))
		v.VoteToHalt()
		return nil
	}
	cur := v.Value().(*pregel.LongValue).Get()
	min := cur
	for _, m := range msgs {
		if x := m.(*pregel.LongValue).Get(); x < min {
			min = x
		}
	}
	if min < cur {
		v.SetValue(pregel.NewLong(min))
		ctx.SendMessageToAllEdges(v, pregel.NewLong(min))
	}
	v.VoteToHalt()
	return nil
})

func pathGraph(t *testing.T, n int) *pregel.Graph {
	t.Helper()
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(0))
	}
	for i := 1; i < n; i++ {
		if err := g.AddUndirectedEdge(pregel.VertexID(i-1), pregel.VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestRegistryConcurrentSnapshots runs a real job with the registry as
// listener while hammering Snapshot from reader goroutines — the
// /metrics serving path, which encodes the rows it was handed — and
// then checks the folded totals. Run under -race this is the
// collector/reader interleaving test, across a checkpoint restart's
// rewind too.
func TestRegistryConcurrentSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  pregel.Config
	}{
		{name: "plain", cfg: pregel.Config{NumWorkers: 4}},
		{name: "checkpoint restart", cfg: pregel.Config{NumWorkers: 4, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(),
			FailureAt: faults.FailAt(5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry("cc-test", "cc")
			tc.cfg.Listener = reg
			job := pregel.NewJob(pathGraph(t, 96), ccCompute, tc.cfg)

			done := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						snap := reg.Snapshot()
						if _, err := json.Marshal(snap); err != nil {
							t.Error(err)
							return
						}
						// Totals never contradict the supersteps
						// captured in the same snapshot.
						var v int64
						for _, ss := range snap.Supersteps {
							v += ss.VerticesProcessed
						}
						if v != snap.Totals.VerticesProcessed {
							t.Errorf("snapshot totals %d != superstep sum %d", snap.Totals.VerticesProcessed, v)
							return
						}
					}
				}()
			}
			stats, err := job.Run()
			close(done)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}

			snap := reg.Snapshot()
			if snap.Running {
				t.Error("Running still true after JobFinished")
			}
			if len(snap.Supersteps) != stats.Supersteps || snap.Totals != stats.Totals() {
				t.Errorf("registry has %d supersteps, stats say %d; totals %+v, stats %+v",
					len(snap.Supersteps), stats.Supersteps, snap.Totals, stats.Totals())
			}
			if tc.cfg.FailureAt != nil && snap.Recoveries != 1 {
				t.Errorf("%d recoveries, want 1", snap.Recoveries)
			}
			if snap.NumWorkers != 4 || snap.NumVertices != 96 {
				t.Errorf("job info not captured: %+v", snap)
			}
			if snap.Reason == "" {
				t.Error("Reason empty after job end")
			}
			if snap.Runtime <= 0 {
				t.Error("Runtime not recorded")
			}
			if snap.Totals.ComputeTime <= 0 {
				t.Error("ComputeTime not folded")
			}
		})
	}
}

type stubFaults struct{ fs pregel.FaultStats }

func (s stubFaults) FaultStats() pregel.FaultStats { return s.fs }

func TestSnapshotOverlaysLiveFaultSources(t *testing.T) {
	reg := NewRegistry("chaos", "cc")
	reg.AddFaultSource(stubFaults{pregel.FaultStats{Injected: 3, Retries: 2}})
	reg.AddFaultSource(stubFaults{pregel.FaultStats{Injected: 1}})

	reg.JobStarted(pregel.JobInfo{NumWorkers: 2})
	if got := reg.Snapshot().Faults; got.Injected != 4 || got.Retries != 2 {
		t.Errorf("live overlay = %+v, want injected=4 retries=2", got)
	}

	// After the job ends the engine's folded stats win over the live
	// sources (which may double-count layers the engine already folded).
	reg.JobFinished(&pregel.Stats{JobEnd: pregel.JobEnd{Faults: pregel.FaultStats{Injected: 9}}}, nil)
	if got := reg.Snapshot().Faults; got.Injected != 9 {
		t.Errorf("final faults = %+v, want the engine's injected=9", got)
	}
}

// TestJSONLGolden runs a deterministic job under a registry and
// compares its normalized JobMetrics document against the checked-in
// golden file. Timings and everything derived from them are zeroed by
// NormalizeJSONL; what remains (superstep structure, message counts,
// vertices, reason) must be exactly reproducible.
func TestJSONLGolden(t *testing.T) {
	reg := NewRegistry("cc-golden", "cc")
	g := pathGraph(t, 24)
	job := pregel.NewJob(g, ccCompute, pregel.Config{NumWorkers: 3, Listener: reg})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	doc, err := MarshalJobMetrics(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := NormalizeJSONL(doc)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	golden := filepath.Join("testdata", "cc_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("normalized document diverges from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestNormalizeJSONLZeroesVolatileFields(t *testing.T) {
	in := []byte(`{
  "supersteps": [{"superstep": 1, "compute_ns": 12345, "workers": [{"worker": 0, "compute_ns": 999, "barrier_ns": 5}], "sent": 7,
    "anomalies": [{"kind": "straggler"}]}],
  "recovery_events": [{"superstep": 2, "duration_ns": 77}],
  "faults": {"retries": 2, "backoff_ns": 31},
  "runtime_ns": 9
}`)
	out, err := NormalizeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"faults":{"backoff_ns":0,"retries":2},"recovery_events":[{"duration_ns":0,"superstep":2}],"runtime_ns":0,` +
		`"supersteps":[{"compute_ns":0,"sent":7,"superstep":1,"workers":[{"barrier_ns":0,"compute_ns":0,"worker":0}]}]}` + "\n"
	if string(out) != want {
		t.Errorf("normalized = %s, want %s", out, want)
	}
	var keys []string
	for k := range volatileKeys() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"backoff_ns", "barrier_ns", "capture_ns", "compute_ns", "compute_skew", "duration_ns", "flush_ns",
		"max_compute_skew", "max_message_skew", "message_skew", "recovery_ns", "runtime_ns", "straggler"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("volatile keys %q, want %q", keys, want)
	}
}

func TestTotalsCaptureOverhead(t *testing.T) {
	tt := pregel.Totals{Counters: pregel.Counters{ComputeTime: 200, CaptureTime: 10}}
	if got := tt.CaptureOverhead(); got != 0.05 {
		t.Errorf("CaptureOverhead = %v, want 0.05", got)
	}
	if got := (pregel.Totals{}).CaptureOverhead(); got != 0 {
		t.Errorf("zero-compute overhead = %v, want 0", got)
	}
}
