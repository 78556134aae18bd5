package graft

import (
	"fmt"
	"math"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// tracedPlaneRun executes one fully-captured job and returns its trace
// view. crashAt >= 0 injects a single simulated worker crash at that
// superstep, with checkpointing every 2 supersteps.
func tracedPlaneRun(t *testing.T, g *Graph, alg *algorithms.Algorithm, engine EngineConfig, crashAt int) (trace.View, *Stats) {
	t.Helper()
	if crashAt >= 0 {
		engine.CheckpointEvery = 2
		engine.CheckpointFS = dfs.NewMemFS()
		crashed := false
		engine.FailureAt = func(superstep int) bool {
			if superstep == crashAt && !crashed {
				crashed = true
				return true
			}
			return false
		}
	}
	store := NewStore(NewMemFS(), "traces")
	res, err := RunAlgorithm(g, alg, RunOptions{
		JobID:  "job",
		Engine: engine,
		Debug:  &DebugConfig{CaptureAllActive: true, MaxCaptures: -1},
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

func requireNoDiff(t *testing.T, label string, a, b trace.View) {
	t.Helper()
	d := trace.DiffJobs(a, b)
	if len(d.OnlyA) > 0 || len(d.OnlyB) > 0 {
		t.Fatalf("%s: capture sets differ: onlyA=%v onlyB=%v", label, d.OnlyA, d.OnlyB)
	}
	if len(d.StatusDiffs) > 0 {
		t.Fatalf("%s: status differs at supersteps %v", label, d.StatusDiffs)
	}
	if fd := d.FirstDivergence(); fd != nil {
		t.Fatalf("%s: %d divergences, first: %+v", label, len(d.Divergences), fd)
	}
}

// withCombiner returns alg's constructor, with the combiner stripped
// when combine is false.
func withCombiner(alg func() *algorithms.Algorithm, combine bool) func() *algorithms.Algorithm {
	return func() *algorithms.Algorithm {
		a := alg()
		if !combine {
			a.Combiner = nil
		}
		return a
	}
}

// TestPlaneEquivalenceProperty checks the message plane against the
// reference interpreter, which has none: for order-insensitive
// reductions (min-based combiners and min folds in compute) the engine
// must end on the reference's values with the reference's per-superstep
// processed, active and sent counts — across algorithms, random graph
// seeds, combiner on/off (rows and message lists), and chaos (simulated
// crash + checkpoint recovery). The reference used to be a second
// message plane; the name stayed.
func TestPlaneEquivalenceProperty(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func(seed int64) *Graph
	}{
		{
			"cc",
			algorithms.NewConnectedComponents,
			func(seed int64) *Graph { return graphgen.SocialGraph(240, 5, seed) },
		},
		{
			"sssp",
			func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func(seed int64) *Graph { return graphgen.WebGraph(240, 5, seed) },
		},
	}
	for _, tc := range cases {
		for _, combine := range []bool{true, false} {
			for _, seed := range []int64{3, 11} {
				for _, crashAt := range []int{-1, 1} {
					label := fmt.Sprintf("%s/combiner=%v/seed=%d/crash=%d", tc.name, combine, seed, crashAt)
					t.Run(label, func(t *testing.T) {
						requireMatchesReference(t, func() *Graph { return tc.build(seed) },
							withCombiner(tc.alg, combine), EngineConfig{NumWorkers: 4}, crashAt)
					})
				}
			}
		}
	}
}

// TestPlaneEquivalencePageRankSingleWorker covers the order-sensitive
// float case. With one worker the plane delivers in exact send order —
// ascending sender ID, the order the reference interpreter sums in — so
// even IEEE-addition-order-sensitive PageRank must match the reference
// bit for bit, with and without its sum combiner.
func TestPlaneEquivalencePageRankSingleWorker(t *testing.T) {
	sameBits := func(a, b Value) bool {
		return math.Float64bits(a.(*pregel.DoubleValue).Get()) == math.Float64bits(b.(*pregel.DoubleValue).Get())
	}
	for _, combine := range []bool{true, false} {
		t.Run(fmt.Sprintf("combiner=%v", combine), func(t *testing.T) {
			requireMatchesReferenceBy(t, sameBits,
				func() *Graph { return graphgen.WebGraph(150, 4, 9) },
				withCombiner(func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) }, combine),
				EngineConfig{NumWorkers: 1}, -1)
		})
	}
}

// TestLanePlaneRunToRunDeterminism: the lane plane merges inboxes in
// canonical sender order, so even multi-worker float PageRank is
// bit-reproducible run to run. Verified via the canonical trace digest.
func TestLanePlaneRunToRunDeterminism(t *testing.T) {
	run := func() string {
		view, _ := tracedPlaneRun(t, graphgen.WebGraph(200, 5, 4), algorithms.NewPageRank(6, 0.85),
			EngineConfig{NumWorkers: 4}, -1)
		return trace.Digest(view)
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("lane-plane PageRank digest changed between runs:\n%s\nvs\n%s", first, again)
	}
}

// broomGraph is a hub fanning out to spokes plus a path hanging off
// one spoke: the hub concentrates message traffic on one partition
// (deterministic skew for the rebalancer) while the path keeps the job
// running long after migrations, exercising post-migration routing.
func broomGraph(spokes, tail int) *Graph {
	g := NewGraph()
	addBoth := func(a, b VertexID) {
		g.AddEdge(a, b, nil)
		g.AddEdge(b, a, nil)
	}
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= spokes; i++ {
		g.AddVertex(VertexID(i), NewLong(int64(i)))
		addBoth(0, VertexID(i))
	}
	prev := VertexID(1)
	for i := 0; i < tail; i++ {
		id := VertexID(spokes + 1 + i)
		g.AddVertex(id, NewLong(int64(id)))
		addBoth(prev, id)
		prev = id
	}
	return g
}

// TestRebalanceDigestDeterminism is the acceptance check that
// repartitioning preserves replay determinism: the same job traced
// with the skew rebalancer on and off must produce the same canonical
// trace digest, because placement must never leak into computation.
func TestRebalanceDigestDeterminism(t *testing.T) {
	run := func(rebalance bool) (string, *Stats) {
		cfg := EngineConfig{NumWorkers: 4}
		if rebalance {
			cfg.RebalanceSkew = 1.3
			cfg.RebalanceMaxMoves = 64
		}
		view, stats := tracedPlaneRun(t, broomGraph(300, 40), algorithms.NewConnectedComponents(), cfg, -1)
		return trace.Digest(view), stats
	}
	offDigest, offStats := run(false)
	onDigest, onStats := run(true)
	if offStats.Rebalances != 0 {
		t.Fatalf("control run migrated: %+v", offStats)
	}
	if onStats.Rebalances == 0 || onStats.VerticesMigrated == 0 {
		t.Fatalf("rebalancer never triggered (skew too low?): %+v", onStats)
	}
	if onDigest != offDigest {
		t.Fatalf("trace digest changed when rebalancer enabled:\noff: %s\non:  %s", offDigest, onDigest)
	}
}

// TestSubgraphRebalanceDigestDeterminism asserts that subgraph mode
// and the skew rebalancer compose: migrations change which partition
// owns a vertex, so subgraph membership must be recomputed afterwards
// — stale components would compute migrated vertices in the wrong
// (or no) subgraph and corrupt the fixpoint. Per-superstep
// trajectories legitimately depend on placement in subgraph mode
// (components collapse within a partition), so the determinism anchor
// is the final vertex-value digest, which must match vertex mode
// exactly, with and without migrations.
func TestSubgraphRebalanceDigestDeterminism(t *testing.T) {
	run := func(mode pregel.ComputeMode, rebalance bool) (string, *Stats) {
		cfg := EngineConfig{NumWorkers: 4, ComputeMode: mode}
		if rebalance {
			cfg.RebalanceSkew = 1.3
			cfg.RebalanceMaxMoves = 64
		}
		g := broomGraph(300, 40)
		_, stats := tracedPlaneRun(t, g, algorithms.NewConnectedComponents(), cfg, -1)
		return g.ValuesDigest(), stats
	}
	vertexDigest, vertexStats := run(pregel.ModeVertex, false)
	offDigest, offStats := run(pregel.ModeSubgraph, false)
	onDigest, onStats := run(pregel.ModeSubgraph, true)

	if offDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged from vertex mode:\nvertex:   %s\nsubgraph: %s",
			vertexDigest, offDigest)
	}
	if onDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged once the rebalancer migrated:\nvertex:    %s\nrebalanced: %s",
			vertexDigest, onDigest)
	}
	if offStats.Supersteps >= vertexStats.Supersteps {
		t.Errorf("subgraph mode did not collapse supersteps: %d vs vertex %d",
			offStats.Supersteps, vertexStats.Supersteps)
	}
	if onStats.Rebalances == 0 || onStats.VerticesMigrated == 0 {
		t.Fatalf("rebalancer never triggered in subgraph mode (skew too low?): %+v", onStats)
	}
	// Membership must have been recomputed, not dropped: supersteps at
	// and after the first migration still dispatch whole components.
	firstMigration := -1
	for _, ss := range onStats.PerSuperstep {
		if firstMigration < 0 && len(ss.Migrations) > 0 {
			firstMigration = ss.Superstep
		}
		if firstMigration >= 0 && ss.Superstep > firstMigration && ss.VerticesProcessed > 0 && ss.SubgraphsComputed == 0 {
			t.Errorf("superstep %d after migration at %d processed %d vertices but dispatched no subgraphs",
				ss.Superstep, firstMigration, ss.VerticesProcessed)
		}
	}
	if firstMigration < 0 {
		t.Fatal("stats recorded rebalances but no migration events")
	}
}

// TestRebalanceDigestDeterminismUnderChaos layers a crash and
// checkpoint recovery on top: the restored reassignment table must
// route exactly like the pre-crash one.
func TestRebalanceDigestDeterminismUnderChaos(t *testing.T) {
	run := func(rebalance bool) (string, *Stats) {
		cfg := EngineConfig{NumWorkers: 4}
		if rebalance {
			cfg.RebalanceSkew = 1.3
			cfg.RebalanceMaxMoves = 64
		}
		view, stats := tracedPlaneRun(t, broomGraph(300, 40), algorithms.NewConnectedComponents(), cfg, 3)
		return trace.Digest(view), stats
	}
	offDigest, _ := run(false)
	onDigest, onStats := run(true)
	if onStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", onStats.Recoveries)
	}
	if onStats.Rebalances == 0 {
		t.Fatalf("rebalancer never triggered: %+v", onStats)
	}
	if onDigest != offDigest {
		t.Fatalf("digest with rebalancer+recovery diverged:\noff: %s\non:  %s", offDigest, onDigest)
	}
}
