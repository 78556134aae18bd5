package graft

import (
	"fmt"
	"math"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// TestPartitionerDigestEquivalence is the placement property test:
// vertex placement must never leak into computation, so under
// order-insensitive combining (min, max, integer sums) the canonical
// trace digest of a job must be identical under hash partitioning and
// under the streaming locality placer — across algorithms, graph
// shapes, seeds, and a mid-run crash with checkpoint recovery; there
// the final values digest must match too. The cc-scattered row's IDs
// are too scattered for a dense ID table, so placement, slot indexes
// and the restored assignment table all take the map. A
// floating-point sum (PageRank) rounds in arrival order, which placement
// changes, so there the final values agree only to rounding.
func TestPartitionerDigestEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func(seed int64) *Graph
		// rounding: compare final values within 1e-9, not traces.
		rounding bool
	}{
		{
			"cc-webhost",
			algorithms.NewConnectedComponents,
			func(seed int64) *Graph { return graphgen.WebHostGraph(400, 20, 5, 0.8, seed) },
			false,
		},
		{
			"sssp-social",
			func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func(seed int64) *Graph { return graphgen.SocialGraph(300, 5, seed) },
			false,
		},
		{
			"cc-scattered",
			algorithms.NewConnectedComponents,
			func(seed int64) *Graph { return scatterIDs(graphgen.SocialGraph(200, 5, seed)) },
			false,
		},
		{
			"pagerank-web",
			func() *algorithms.Algorithm { return algorithms.NewPageRank(10, 0.85) },
			func(seed int64) *Graph { return graphgen.WebGraph(400, 8, seed) },
			true,
		},
	}
	for _, tc := range cases {
		for _, seed := range []int64{3, 11} {
			for _, crashAt := range []int{-1, 1} {
				label := fmt.Sprintf("%s/seed=%d/crash=%d", tc.name, seed, crashAt)
				t.Run(label, func(t *testing.T) {
					hashGraph, locGraph := tc.build(seed), tc.build(seed)
					hashView, hashStats := tracedPlaneRun(t, hashGraph, tc.alg(), false,
						EngineConfig{NumWorkers: 4, Partitioner: PartitionHash}, crashAt)
					locView, locStats := tracedPlaneRun(t, locGraph, tc.alg(), false,
						EngineConfig{NumWorkers: 4, Partitioner: PartitionLocality}, crashAt)
					if tc.rounding {
						hashGraph.Each(func(v *Vertex) {
							h := v.Value().(*pregel.DoubleValue).Get()
							l := locGraph.Vertex(v.ID()).Value().(*pregel.DoubleValue).Get()
							if math.Abs(h-l) > 1e-9 {
								t.Errorf("vertex %d: hash %v, locality %v", v.ID(), h, l)
							}
						})
					} else {
						requireNoDiff(t, label, hashView, locView)
						if trace.Digest(hashView) != trace.Digest(locView) {
							t.Errorf("trace digests diverged across placements")
						}
						if hashGraph.ValuesDigest() != locGraph.ValuesDigest() {
							t.Errorf("values digests diverged across placements")
						}
					}
					if hashStats.TotalMessages != locStats.TotalMessages {
						t.Errorf("TotalMessages: hash %d, locality %d",
							hashStats.TotalMessages, locStats.TotalMessages)
					}
					if crashed := locStats.Recoveries > 0; crashed != (crashAt >= 0) {
						t.Errorf("locality run recovered %d times with crash=%d", locStats.Recoveries, crashAt)
					}
					if locStats.Partitioner != PartitionLocality {
						t.Errorf("locality run reported partitioner %v", locStats.Partitioner)
					}
				})
			}
		}
	}
}

// scatterIDs returns a copy of g, whose IDs are 0..n-1, with ID i
// renamed (i-n/2)·(2^34+1): the order of IDs is kept, but they straddle
// zero over a range of more than 2^40 once n reaches 64. The odd factor
// keeps the hash placement spread over the workers.
func scatterIDs(g *Graph) *Graph {
	half := VertexID(g.NumVertices() / 2)
	rename := func(id VertexID) VertexID { return (id - half) * (1<<34 + 1) }
	out := pregel.NewGraph()
	g.Each(func(v *Vertex) { out.AddVertex(rename(v.ID()), v.Value()) })
	g.Each(func(v *Vertex) {
		for _, e := range v.Edges() {
			out.Vertex(rename(v.ID())).AddEdge(Edge{Target: rename(e.Target), Value: e.Value})
		}
	})
	return out
}

// TestPartitionerSubgraphValuesEquivalence covers the subgraph-centric
// mode, where per-superstep trajectories legitimately depend on
// placement (components collapse within a partition): the determinism
// anchor is the final vertex-value digest, which must match across
// placements and match vertex mode — and on a chain-of-communities
// graph the locality placement must converge in no more supersteps
// than hash, since whole communities stop crossing partitions. On the
// BFS chain, whose supersteps track partition crossings along the
// path, it must converge in strictly fewer.
func TestPartitionerSubgraphValuesEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func() *Graph
		fewer bool
	}{
		{"cc-chain", algorithms.NewConnectedComponents, func() *Graph { return graphgen.ChainedCommunities(600, 12, 4, 7) }, false},
		{"bfs-chain", func() *algorithms.Algorithm { return algorithms.NewBFS(0) }, func() *Graph { return graphgen.ChainedCommunities(3000, 48, 4, 42) }, true},
	}
	for _, tc := range cases {
		run := func(subgraph bool, p PartitionerMode) (string, *Stats) {
			g := tc.build()
			_, stats := tracedPlaneRun(t, g, tc.alg(), subgraph, EngineConfig{NumWorkers: 4, Partitioner: p}, -1)
			return g.ValuesDigest(), stats
		}
		vertexDigest, _ := run(false, PartitionHash)
		hashDigest, hashStats := run(true, PartitionHash)
		locDigest, locStats := run(true, PartitionLocality)
		if hashDigest != vertexDigest {
			t.Fatalf("%s: subgraph-mode values diverged from vertex mode under hash placement", tc.name)
		}
		if locDigest != vertexDigest {
			t.Fatalf("%s: subgraph-mode values diverged from vertex mode under locality placement", tc.name)
		}
		if locStats.Supersteps > hashStats.Supersteps || tc.fewer && locStats.Supersteps == hashStats.Supersteps {
			t.Errorf("%s: locality placement took %d subgraph-mode supersteps, hash %d — placement did not help convergence",
				tc.name, locStats.Supersteps, hashStats.Supersteps)
		}
	}
}

// TestPartitionerConfinedRecoveryEquivalence keeps the name it had when
// one partition could be recovered alone. It crashes a locality-placed
// job and restarts it from a checkpoint: the assignment table restored
// from the checkpoint must route exactly as before the crash, so the
// trace digest must match both the uninterrupted locality run and the
// hash-placed crashed run.
func TestPartitionerConfinedRecoveryEquivalence(t *testing.T) {
	const crashAt = 3
	build := func() *Graph { return graphgen.ChainedCommunities(480, 8, 4, 7) }
	engine := func(p PartitionerMode) EngineConfig {
		return EngineConfig{NumWorkers: 4, Partitioner: p}
	}
	hashView, _ := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionHash), crashAt)
	cleanView, _ := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionLocality), -1)
	crashView, crashStats := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionLocality), crashAt)

	if crashStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", crashStats.Recoveries)
	}
	requireNoDiff(t, "locality crash vs clean", crashView, cleanView)
	requireNoDiff(t, "locality vs hash under crash", crashView, hashView)
	if d := trace.Digest(crashView); d != trace.Digest(cleanView) || d != trace.Digest(hashView) {
		t.Error("trace digests diverged across placement and recovery")
	}
}
