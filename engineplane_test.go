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

// tracedPlaneRun executes one fully-captured job — of alg's subgraph
// port when subgraph is set — and returns its trace view. crashAt >= 0
// injects a single simulated worker crash at that superstep, with
// checkpointing every 2 supersteps.
func tracedPlaneRun(t *testing.T, g *Graph, alg *algorithms.Algorithm, subgraph bool, engine EngineConfig, crashAt int) (*trace.Reader, *Stats) {
	t.Helper()
	return tracedPlaneRunUnder(t, &DebugConfig{CaptureAllActive: true, MaxCaptures: -1}, g, alg, subgraph, engine, crashAt)
}

// tracedPlaneRunUnder is tracedPlaneRun with the DebugConfig chosen by
// the caller.
func tracedPlaneRunUnder(t *testing.T, debug *DebugConfig, g *Graph, alg *algorithms.Algorithm, subgraph bool, engine EngineConfig, crashAt int) (*trace.Reader, *Stats) {
	t.Helper()
	if crashAt >= 0 {
		engine.CheckpointEvery = 2
		engine.CheckpointFS = dfs.NewMemFS()
		engine.FailureAt = FailAt(crashAt)
	}
	store := NewStore(NewMemFS(), "traces")
	opts := RunOptions{
		JobID:  "job",
		Engine: engine,
		Debug:  debug,
		Store:  store,
	}
	if subgraph {
		opts.Subgraph = alg.Subgraph
	}
	res, err := RunAlgorithm(g, alg, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	return db, res.Stats
}

func requireNoDiff(t *testing.T, label string, a, b *trace.Reader) {
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
		view, _ := tracedPlaneRun(t, graphgen.WebGraph(200, 5, 4), algorithms.NewPageRank(6, 0.85), false,
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
// (deterministic skew) while the path keeps the job running for many
// supersteps after the hub has gone quiet.
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

// TestSubgraphRebalanceDigestDeterminism asserts that subgraph mode
// composes with a placement that is not the hash: subgraph membership
// is computed from the locality placer's table, and stale or missing
// membership would compute vertices in the wrong (or no) subgraph and
// corrupt the fixpoint. Per-superstep trajectories legitimately depend
// on placement in subgraph mode, so the anchor is the final
// vertex-value digest, which must match vertex mode under either
// placement.
func TestSubgraphRebalanceDigestDeterminism(t *testing.T) {
	run := func(subgraph bool, p PartitionerMode) (string, *Stats) {
		g := broomGraph(300, 40)
		_, stats := tracedPlaneRun(t, g, algorithms.NewConnectedComponents(), subgraph,
			EngineConfig{NumWorkers: 4, Partitioner: p}, -1)
		return g.ValuesDigest(), stats
	}
	vertexDigest, vertexStats := run(false, PartitionHash)
	hashDigest, hashStats := run(true, PartitionHash)
	locDigest, locStats := run(true, PartitionLocality)

	if hashDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged from vertex mode:\nvertex:   %s\nsubgraph: %s",
			vertexDigest, hashDigest)
	}
	if locDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged under locality placement:\nvertex:   %s\nlocality: %s",
			vertexDigest, locDigest)
	}
	if hashStats.Supersteps >= vertexStats.Supersteps {
		t.Errorf("subgraph mode did not collapse supersteps: %d vs vertex %d",
			hashStats.Supersteps, vertexStats.Supersteps)
	}
	if locStats.EdgeCut >= hashStats.EdgeCut {
		t.Fatalf("locality placement did not change placement: edge cut %d, hash %d",
			locStats.EdgeCut, hashStats.EdgeCut)
	}
	// Membership must have been built from the table, not dropped: every
	// superstep that computes vertices dispatches whole components.
	for _, ss := range locStats.PerSuperstep {
		if ss.VerticesProcessed > 0 && ss.SubgraphsComputed == 0 {
			t.Errorf("superstep %d processed %d vertices but dispatched no subgraphs",
				ss.Superstep, ss.VerticesProcessed)
		}
	}
}

// TestRebalanceDigestDeterminismUnderChaos layers a crash and
// checkpoint recovery on a locality-placed job: the placement table
// restored from the checkpoint must route exactly like the one built at
// load, so the digest matches the hash-placed run under the same crash.
func TestRebalanceDigestDeterminismUnderChaos(t *testing.T) {
	run := func(p PartitionerMode) (string, *Stats) {
		view, stats := tracedPlaneRun(t, broomGraph(300, 40), algorithms.NewConnectedComponents(), false,
			EngineConfig{NumWorkers: 4, Partitioner: p}, 3)
		return trace.Digest(view), stats
	}
	hashDigest, hashStats := run(PartitionHash)
	locDigest, locStats := run(PartitionLocality)
	if locStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", locStats.Recoveries)
	}
	if locStats.EdgeCut >= hashStats.EdgeCut {
		t.Fatalf("locality placement did not change placement: edge cut %d, hash %d",
			locStats.EdgeCut, hashStats.EdgeCut)
	}
	if locDigest != hashDigest {
		t.Fatalf("digest with locality placement+recovery diverged:\nhash:     %s\nlocality: %s", hashDigest, locDigest)
	}
}
