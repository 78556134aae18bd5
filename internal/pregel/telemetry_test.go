package pregel

import (
	"reflect"
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

// flushingListener also implements BarrierFlusher, so the engine times
// a (no-op) barrier flush into FlushTime.
type flushingListener struct{ telemetryListener }

func (*flushingListener) BarrierFlush(int) error { return nil }

// barrierSet names the Counters fields the coordinator sets at the
// barrier instead of summing the workers' rows.
var barrierSet = map[string]bool{"ComputeTime": true, "MessagesCombined": true, "LocalMessages": true, "FlushTime": true}

// counterSums adds rows field by field through reflection, so that
// Counters.Add is checked against an independent fold and a counter
// added later is covered without an edit here.
func counterSums(rows []Counters) []int64 {
	sums := make([]int64, reflect.TypeOf(Counters{}).NumField())
	for _, r := range rows {
		v := reflect.ValueOf(r)
		for f := range sums {
			sums[f] += v.Field(f).Int()
		}
	}
	return sums
}

func TestSuperstepTelemetryFoldsWorkerCounters(t *testing.T) {
	const n, workers = 64, 4
	fields := reflect.TypeOf(Counters{})
	for _, tc := range []struct {
		name string
		job  func(Config) *Job
	}{
		{"vertex", func(cfg Config) *Job {
			cfg.Combiner = MinLongCombiner
			return NewJob(pathGraph(t, n), ccCompute, cfg)
		}},
		{"subgraph", func(cfg Config) *Job {
			g := pathGraph(t, n)
			g.Each(func(v *Vertex) { v.SetValue(NewLong(int64(v.ID()))) })
			return NewSubgraphJob(g, subgraphMinLabel, cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := &flushingListener{}
			stats, err := tc.job(Config{NumWorkers: workers, Listener: l}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(l.steps) != stats.Supersteps {
				t.Fatalf("listener saw %d supersteps, stats say %d", len(l.steps), stats.Supersteps)
			}
			for i, ss := range l.steps {
				if ss.Superstep != i {
					t.Errorf("step %d: Superstep = %d", i, ss.Superstep)
				}
				if len(ss.Workers) != workers {
					t.Fatalf("step %d: %d worker rows, want %d", i, len(ss.Workers), workers)
				}
				rows := make([]Counters, len(ss.Workers))
				for w, ws := range ss.Workers {
					if ws.BarrierWait < 0 || ws.ComputeTime > ss.ComputeTime {
						t.Errorf("step %d worker %d: compute %v, barrier wait %v in a %v phase",
							i, w, ws.ComputeTime, ws.BarrierWait, ss.ComputeTime)
					}
					rows[w] = ws.Counters
				}
				got := reflect.ValueOf(ss.Counters)
				for f, sum := range counterSums(rows) {
					name := fields.Field(f).Name
					switch {
					case !barrierSet[name] && got.Field(f).Int() != sum:
						t.Errorf("step %d: workers' %s sum to %d, the superstep has %d", i, name, sum, got.Field(f).Int())
					case barrierSet[name] && name != "ComputeTime" && sum != 0:
						t.Errorf("step %d: worker rows carry the barrier-set %s (%d)", i, name, sum)
					}
				}
				if ss.VerticesProcessed > 0 && ss.ComputeSkew < 1 {
					t.Errorf("step %d: compute skew %.3f < 1", i, ss.ComputeSkew)
				}
				if ss.Straggler < -1 || ss.Straggler >= workers {
					t.Errorf("step %d: straggler %d out of range", i, ss.Straggler)
				}
			}
			steps := make([]Counters, len(stats.PerSuperstep))
			for i, ss := range stats.PerSuperstep {
				steps[i] = ss.Counters
			}
			tot := stats.Totals()
			got := reflect.ValueOf(tot.Counters)
			for f, sum := range counterSums(steps) {
				if got.Field(f).Int() != sum {
					t.Errorf("Totals().%s = %d, the supersteps sum to %d", fields.Field(f).Name, got.Field(f).Int(), sum)
				}
			}
			if tot.MessagesSent != stats.TotalMessages {
				t.Errorf("Totals().MessagesSent = %d, Stats.TotalMessages = %d", tot.MessagesSent, stats.TotalMessages)
			}
			// Every vertex computes in superstep 0, and every message sent
			// is delivered or combined away.
			if l.steps[0].VerticesProcessed != n {
				t.Errorf("superstep 0 processed %d vertices, want %d", l.steps[0].VerticesProcessed, n)
			}
			if tot.MessagesReceived != tot.MessagesSent-tot.MessagesCombined {
				t.Errorf("delivered %d messages, want sent-combined = %d-%d", tot.MessagesReceived, tot.MessagesSent, tot.MessagesCombined)
			}
			if (tc.name == "vertex") != (tot.MessagesCombined > 0) || (tc.name == "subgraph") != (tot.InternalIterations > 0) {
				t.Errorf("%s mode totals %+v: combined and internal iterations not where expected", tc.name, tot.Counters)
			}
			if compute, _, _ := stats.PhaseTotals(); stats.Runtime < compute {
				t.Errorf("Runtime %v < summed compute phases %v", stats.Runtime, compute)
			}
		})
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
