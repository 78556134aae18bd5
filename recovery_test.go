package graft

import (
	"hash/fnv"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// TestRecoveryDigestEquivalence is the recovery acceptance property:
// for each algorithm, a failure-free run and a run that crashes and
// restarts from a checkpoint must produce the same canonical trace
// digest — recovery must be invisible in the computation.
func TestRecoveryDigestEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func() *Graph
	}{
		{
			"cc",
			algorithms.NewConnectedComponents,
			func() *Graph { return graphgen.SocialGraph(240, 5, 7) },
		},
		{
			"pagerank",
			func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) },
			func() *Graph { return graphgen.WebGraph(240, 5, 7) },
		},
	}
	const crashAt = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine := EngineConfig{NumWorkers: 4}
			cleanView, _ := tracedPlaneRun(t, tc.build(), tc.alg(), false, engine, -1)
			clean := trace.Digest(cleanView)

			view, stats := tracedPlaneRun(t, tc.build(), tc.alg(), false, engine, crashAt)
			if stats.Recoveries != 1 || len(stats.RecoveryEvents) != 1 {
				t.Fatalf("recoveries = %d, events = %+v, want one restart", stats.Recoveries, stats.RecoveryEvents)
			}
			if ev := stats.RecoveryEvents[0]; ev.Superstep != crashAt || ev.CheckpointSuperstep != 2 {
				t.Errorf("recovery event = %+v, want failure at %d rolled back to checkpoint 2", ev, crashAt)
			}
			if got := trace.Digest(view); got != clean {
				t.Errorf("recovered digest diverged:\nclean: %s\ngot:   %s", clean, got)
			}
		})
	}
}

// TestRecoveryDigestEquivalenceUnderConstraints is the same property
// where every capture is triggered after the fact — a fifth of the
// messages and of the values violate — so each record comes from a
// recording re-run. The restart re-executes the rewound supersteps, the
// re-run does it once more over a copy, and the recovered trace is
// still the uncrashed one.
func TestRecoveryDigestEquivalenceUnderConstraints(t *testing.T) {
	scattered := func(v Value, id VertexID) bool {
		h := fnv.New32a()
		h.Write(pregel.MarshalValue(v))
		h.Write([]byte{byte(id), byte(id >> 8)})
		return h.Sum32()%5 != 0
	}
	debug := func() *DebugConfig {
		return &DebugConfig{
			MessageConstraint:     func(m Value, _, dst VertexID, _ int) bool { return scattered(m, dst) },
			VertexValueConstraint: func(v Value, id VertexID, _ int) bool { return scattered(v, id) },
			CaptureExceptions:     true,
		}
	}
	const crashAt = 3
	engine := EngineConfig{NumWorkers: 4}
	build := func() *Graph { return graphgen.WebGraph(240, 5, 7) }
	alg := func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) }

	cleanView, _ := tracedPlaneRunUnder(t, debug(), build(), alg(), false, engine, -1)
	clean := trace.Digest(cleanView)
	if n := cleanView.TotalCaptures(); n < 100 {
		t.Fatalf("only %d constraint-triggered captures; the property needs a populated trace", n)
	}
	for _, s := range cleanView.Supersteps() {
		for _, c := range cleanView.CapturesAt(s) {
			if c.Reasons.Has(trace.ReasonNondeterministic) || c.Reasons&(trace.ReasonVertexConstraint|trace.ReasonMessageConstraint) == 0 {
				t.Fatalf("superstep %d vertex %d: reasons %v", s, c.ID, c.Reasons)
			}
		}
	}
	view, stats := tracedPlaneRunUnder(t, debug(), build(), alg(), false, engine, crashAt)
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	if got := trace.Digest(view); got != clean {
		t.Errorf("recovered digest diverged:\nclean: %s\ngot:   %s", clean, got)
	}
}
