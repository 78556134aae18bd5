package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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
// /metrics serving path — and then checks the folded totals. Run under
// -race this is the collector/reader interleaving test.
func TestRegistryConcurrentSnapshots(t *testing.T) {
	reg := NewRegistry("cc-test", "cc")
	g := pathGraph(t, 96)
	job := pregel.NewJob(g, ccCompute, pregel.Config{NumWorkers: 4, Listener: reg})

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
				// Monotone consistency: totals never contradict the
				// supersteps captured in the same snapshot.
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
	if len(snap.Supersteps) != stats.Supersteps {
		t.Errorf("registry has %d supersteps, stats say %d", len(snap.Supersteps), stats.Supersteps)
	}
	if snap.NumWorkers != 4 || snap.NumVertices != 96 {
		t.Errorf("job info not captured: %+v", snap)
	}
	if snap.Reason == "" {
		t.Error("Reason empty after job end")
	}
	if snap.RuntimeNanos <= 0 {
		t.Error("RuntimeNanos not recorded")
	}
	if snap.Totals.ComputeNanos <= 0 {
		t.Error("ComputeNanos not folded")
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
	reg.JobFinished(&pregel.Stats{Faults: pregel.FaultStats{Injected: 9}}, nil)
	if got := reg.Snapshot().Faults; got.Injected != 9 {
		t.Errorf("final faults = %+v, want the engine's injected=9", got)
	}
}

// TestJSONLGolden runs a deterministic job through the JSONL sink and
// compares the normalized stream against the checked-in golden file.
// Timings and everything derived from them are zeroed by
// NormalizeJSONL; what remains (superstep structure, message counts,
// vertices, reason) must be exactly reproducible.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	reg := NewRegistry("cc-golden", "cc")
	sink := NewJSONLSink(&buf)
	reg.SetSink(sink)

	g := pathGraph(t, 24)
	job := pregel.NewJob(g, ccCompute, pregel.Config{NumWorkers: 3, Listener: reg})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := NormalizeJSONL(buf.Bytes())
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
		t.Errorf("normalized JSONL diverges from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestNormalizeJSONLZeroesVolatileFields(t *testing.T) {
	in := []byte(`{"event":"superstep","superstep":1,"compute_ns":12345,"workers":[{"worker":0,"compute_ns":999,"barrier_ns":5}],"sent":7}` + "\n")
	out, err := NormalizeJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"compute_ns":0,"event":"superstep","sent":7,"superstep":1,"workers":[{"barrier_ns":0,"compute_ns":0,"worker":0}]}` + "\n"
	if string(out) != want {
		t.Errorf("normalized = %s, want %s", out, want)
	}
}

func TestTotalsCaptureOverhead(t *testing.T) {
	tt := pregel.Totals{ComputeNanos: 200, CaptureNanos: 10}
	if got := tt.CaptureOverhead(); got != 0.05 {
		t.Errorf("CaptureOverhead = %v, want 0.05", got)
	}
	if got := (pregel.Totals{}).CaptureOverhead(); got != 0 {
		t.Errorf("zero-compute overhead = %v, want 0", got)
	}
}

func TestJSONLSinkStickyError(t *testing.T) {
	sink := NewJSONLSink(failingWriter{})
	sink.JobStart(&JobMetrics{JobID: "x"})
	sink.JobEnd(&JobMetrics{}) // flushes, surfacing the write error
	if sink.Err() == nil {
		t.Fatal("write error not recorded")
	}
	// Later events are dropped, not panicking or blocking.
	sink.Superstep(&JobMetrics{}, pregel.SuperstepStats{})
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, os.ErrClosed }

func TestRegistryStringSummarizes(t *testing.T) {
	reg := NewRegistry("job-1", "cc")
	reg.SuperstepFinished(0, pregel.SuperstepStats{
		Superstep:   0,
		ComputeTime: 3 * time.Millisecond,
	})
	s := reg.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("job-1")) {
		t.Errorf("String() = %q", s)
	}
}
