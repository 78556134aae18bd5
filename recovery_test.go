package graft

import (
	"fmt"
	"hash/fnv"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// tracedRecoveryRun executes one fully-captured job under the given
// recovery mode, optionally failing one partition at crashAt, and
// returns the trace view and stats.
func tracedRecoveryRun(t *testing.T, g *Graph, alg *algorithms.Algorithm, engine EngineConfig, mode RecoveryMode, crashAt, partition int) (trace.View, *Stats) {
	t.Helper()
	return tracedRecoveryRunUnder(t, &DebugConfig{CaptureAllActive: true, MaxCaptures: -1}, g, alg, engine, mode, crashAt, partition)
}

// tracedRecoveryRunUnder is tracedRecoveryRun with the DebugConfig
// chosen by the caller.
func tracedRecoveryRunUnder(t *testing.T, debug *DebugConfig, g *Graph, alg *algorithms.Algorithm, engine EngineConfig, mode RecoveryMode, crashAt, partition int) (trace.View, *Stats) {
	t.Helper()
	engine.CheckpointEvery = 2
	engine.CheckpointFS = dfs.NewMemFS()
	engine.Recovery = mode
	engine.MsgLogFS = dfs.NewMemFS()
	if crashAt >= 0 {
		engine.PartitionFailureAt = FailPartitionAt(crashAt, partition)
	}
	store := NewStore(NewMemFS(), "traces")
	res, err := RunAlgorithm(g, alg, RunOptions{
		JobID:  "job",
		Engine: engine,
		Debug:  debug,
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	return db, res.Stats
}

// TestRecoveryDigestEquivalence is the tentpole acceptance property:
// for each algorithm, a failure-free run, a checkpoint-restart
// recovered run and a log-based confined recovered run must produce
// the same canonical trace digest — recovery of either flavor must be
// invisible in the computation. Confined recovery additionally has to
// prove it stayed confined.
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
	const crashAt, victim = 3, 1
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine := EngineConfig{NumWorkers: 4}
			cleanView, _ := tracedRecoveryRun(t, tc.build(), tc.alg(), engine, RecoveryCheckpoint, -1, 0)
			clean := trace.Digest(cleanView)

			ckptView, ckptStats := tracedRecoveryRun(t, tc.build(), tc.alg(), engine, RecoveryCheckpoint, crashAt, victim)
			if ckptStats.Recoveries != 1 {
				t.Fatalf("checkpoint run recoveries = %d, want 1", ckptStats.Recoveries)
			}
			if got := trace.Digest(ckptView); got != clean {
				t.Errorf("checkpoint-recovered digest diverged:\nclean: %s\ngot:   %s", clean, got)
			}

			logView, logStats := tracedRecoveryRun(t, tc.build(), tc.alg(), engine, RecoveryLog, crashAt, victim)
			if logStats.Recoveries != 1 {
				t.Fatalf("log run recoveries = %d, want 1", logStats.Recoveries)
			}
			if len(logStats.RecoveryEvents) != 1 || logStats.RecoveryEvents[0].Mode != "log" {
				t.Fatalf("log run recovery events = %+v, want one log-mode event", logStats.RecoveryEvents)
			}
			if n := logStats.RecoveryEvents[0].PartitionsRecomputed; n != 1 {
				t.Errorf("confined recovery recomputed %d partitions, want 1", n)
			}
			if got := trace.Digest(logView); got != clean {
				t.Errorf("log-recovered digest diverged:\nclean: %s\ngot:   %s", clean, got)
			}
		})
	}
}

// TestRecoveryDigestEquivalenceUnderConstraints is the same property
// where every capture is triggered after the fact — a fifth of the
// messages and of the values violate — so each record comes from a
// recording re-run. Confined replay re-executes computes with their
// outputs swallowed, the re-run does it once more over a copy, and the
// recovered trace is still the uncrashed one.
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
	const crashAt, victim = 3, 1
	engine := EngineConfig{NumWorkers: 4}
	build := func() *Graph { return graphgen.WebGraph(240, 5, 7) }
	alg := func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) }

	cleanView, _ := tracedRecoveryRunUnder(t, debug(), build(), alg(), engine, RecoveryCheckpoint, -1, 0)
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
	for _, mode := range []RecoveryMode{RecoveryCheckpoint, RecoveryLog} {
		view, stats := tracedRecoveryRunUnder(t, debug(), build(), alg(), engine, mode, crashAt, victim)
		if stats.Recoveries != 1 {
			t.Fatalf("%s run recoveries = %d, want 1", mode, stats.Recoveries)
		}
		if mode == RecoveryLog && (len(stats.RecoveryEvents) != 1 || stats.RecoveryEvents[0].Mode != "log") {
			t.Fatalf("log run recovery events = %+v, want one log-mode event", stats.RecoveryEvents)
		}
		if got := trace.Digest(view); got != clean {
			t.Errorf("%s-recovered digest diverged:\nclean: %s\ngot:   %s", mode, clean, got)
		}
	}
}

// TestRecoveryDigestEquivalenceWithRebalancer layers the skew
// rebalancer on top of confined recovery: migrations inside the replay
// window change message routing after the frames were logged, so
// replay must re-route every logged entry by current placement.
func TestRecoveryDigestEquivalenceWithRebalancer(t *testing.T) {
	build := func() *Graph { return broomGraph(300, 40) }
	alg := algorithms.NewConnectedComponents
	engine := EngineConfig{
		NumWorkers:        4,
		RebalanceSkew:     1.3,
		RebalanceMaxMoves: 64,
	}
	cleanView, _ := tracedRecoveryRun(t, build(), alg(), engine, RecoveryCheckpoint, -1, 0)
	clean := trace.Digest(cleanView)

	for _, mode := range []RecoveryMode{RecoveryCheckpoint, RecoveryLog} {
		t.Run(mode.String(), func(t *testing.T) {
			view, stats := tracedRecoveryRun(t, build(), alg(), engine, mode, 4, 0)
			if stats.Recoveries != 1 {
				t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
			}
			if stats.Rebalances == 0 {
				t.Fatalf("rebalancer never triggered: %+v", stats)
			}
			if got := trace.Digest(view); got != clean {
				t.Errorf("digest with rebalancer + %s recovery diverged:\nclean: %s\ngot:   %s", mode, clean, got)
			}
		})
	}
}

// TestRecoverySeededChaosVictim pins PickPartition's determinism: the
// same seed must always pick the same victim, and a job that kills it
// must still converge to the failure-free digest.
func TestRecoverySeededChaosVictim(t *testing.T) {
	const seed, workers = 42, 4
	victim := PickPartition(seed, workers)
	if again := PickPartition(seed, workers); again != victim {
		t.Fatalf("PickPartition not deterministic: %d vs %d", victim, again)
	}
	if victim < 0 || victim >= workers {
		t.Fatalf("PickPartition out of range: %d", victim)
	}
	engine := EngineConfig{NumWorkers: workers}
	build := func() *Graph { return graphgen.SocialGraph(200, 5, 11) }
	cleanView, _ := tracedRecoveryRun(t, build(), algorithms.NewConnectedComponents(), engine, RecoveryCheckpoint, -1, 0)
	view, stats := tracedRecoveryRun(t, build(), algorithms.NewConnectedComponents(), engine, RecoveryLog, 2, victim)
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	want, got := trace.Digest(cleanView), trace.Digest(view)
	if got != want {
		t.Errorf("seeded-victim recovered digest diverged:\nclean: %s\ngot:   %s", want, got)
	}
	if fmt.Sprint(stats.RecoveryEvents[0].Partitions) != fmt.Sprintf("[%d]", victim) {
		t.Errorf("recovered partitions = %v, want [%d]", stats.RecoveryEvents[0].Partitions, victim)
	}
}
