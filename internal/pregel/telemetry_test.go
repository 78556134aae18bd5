package pregel

import (
	"strings"
	"testing"

	"graft/internal/dfs"
)

// telemetryListener records every folded SuperstepStats.
type telemetryListener struct {
	steps []SuperstepStats
}

func (l *telemetryListener) JobStarted(info JobInfo)                            {}
func (l *telemetryListener) SuperstepStarted(superstep int, info SuperstepInfo) {}
func (l *telemetryListener) SuperstepFinished(superstep int, ss SuperstepStats) {
	l.steps = append(l.steps, ss)
}
func (l *telemetryListener) JobFinished(stats *Stats, err error) {}

func TestSuperstepTelemetryFoldsWorkerCounters(t *testing.T) {
	const n, workers = 64, 4
	g := pathGraph(t, n)
	l := &telemetryListener{}
	job := NewJob(g, ccCompute, Config{NumWorkers: workers, Listener: l})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.steps) != stats.Supersteps {
		t.Fatalf("listener saw %d supersteps, stats say %d", len(l.steps), stats.Supersteps)
	}
	var totalSent, totalReceived int64
	for i, ss := range l.steps {
		if ss.Superstep != i {
			t.Errorf("step %d: Superstep = %d", i, ss.Superstep)
		}
		if len(ss.Workers) != workers {
			t.Fatalf("step %d: %d worker rows, want %d", i, len(ss.Workers), workers)
		}
		var wv, wsent, wrecv int64
		for _, ws := range ss.Workers {
			if ws.BarrierWait < 0 {
				t.Errorf("step %d worker %d: negative barrier wait %v", i, ws.Worker, ws.BarrierWait)
			}
			wv += ws.VerticesProcessed
			wsent += ws.MessagesSent
			wrecv += ws.MessagesReceived
		}
		if wv != ss.VerticesProcessed {
			t.Errorf("step %d: worker vertices sum %d != total %d", i, wv, ss.VerticesProcessed)
		}
		if wsent != ss.MessagesSent {
			t.Errorf("step %d: worker sent sum %d != total %d", i, wsent, ss.MessagesSent)
		}
		if wrecv != ss.MessagesReceived {
			t.Errorf("step %d: worker received sum %d != total %d", i, wrecv, ss.MessagesReceived)
		}
		if ss.VerticesProcessed > 0 && ss.ComputeSkew < 1 {
			t.Errorf("step %d: compute skew %.3f < 1", i, ss.ComputeSkew)
		}
		if ss.Straggler < -1 || ss.Straggler >= workers {
			t.Errorf("step %d: straggler %d out of range", i, ss.Straggler)
		}
		totalSent += ss.MessagesSent
		totalReceived += ss.MessagesReceived
	}
	// Every vertex computes in superstep 0.
	if l.steps[0].VerticesProcessed != n {
		t.Errorf("superstep 0 processed %d vertices, want %d", l.steps[0].VerticesProcessed, n)
	}
	// Without a combiner every sent message is eventually delivered.
	if totalSent != totalReceived {
		t.Errorf("job sent %d messages but delivered %d", totalSent, totalReceived)
	}
	if stats.TotalMessages != totalSent {
		t.Errorf("Stats.TotalMessages = %d, telemetry sum = %d", stats.TotalMessages, totalSent)
	}
	if compute, _, _ := stats.PhaseTotals(); stats.Runtime < compute {
		t.Errorf("Runtime %v < summed compute phases %v", stats.Runtime, compute)
	}
}

func TestCombinerTelemetryAccountsMergedMessages(t *testing.T) {
	// A star: every leaf messages the hub each superstep, so a min
	// combiner merges most of them away.
	g := NewGraph()
	const leaves = 40
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= leaves; i++ {
		g.AddVertex(VertexID(i), NewLong(int64(i)))
		if err := g.AddUndirectedEdge(0, VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	l := &telemetryListener{}
	job := NewJob(g, ccCompute, Config{
		NumWorkers: 3,
		Listener:   l,
		Combiner: CombineFunc(func(to VertexID, a, b Value) Value {
			if a.(*LongValue).Get() <= b.(*LongValue).Get() {
				return a
			}
			return b
		}),
	})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	var sent, received, combined int64
	for _, ss := range l.steps {
		sent += ss.MessagesSent
		received += ss.MessagesReceived
		combined += ss.MessagesCombined
	}
	if combined == 0 {
		t.Fatal("combiner merged no messages on a star graph")
	}
	if received != sent-combined {
		t.Errorf("delivered %d messages, want sent-combined = %d-%d = %d",
			received, sent, combined, sent-combined)
	}
}

func TestStatsStringAndRecoveryRuntime(t *testing.T) {
	fs := dfs.NewMemFS()
	failed := false
	g := pathGraph(t, 48)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(superstep int) bool {
			if superstep == 1 && !failed {
				failed = true
				return true
			}
			return false
		},
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("failure was never injected")
	}
	if stats.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", stats.Recoveries)
	}
	if stats.RecoveryTime <= 0 {
		t.Error("RecoveryTime not recorded")
	}
	if stats.Runtime < stats.RecoveryTime {
		t.Errorf("Runtime %v < RecoveryTime %v", stats.Runtime, stats.RecoveryTime)
	}
	s := stats.String()
	for _, want := range []string{"supersteps=", "reason=", "recoveries=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("Stats.String() = %q, missing %q", s, want)
		}
	}
}
