package algorithms_test

import (
	"math"
	"math/rand"
	"testing"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// symRandomGraph builds a seeded random symmetric graph over n
// vertices with ~2n undirected edges, LongValue values.
func symRandomGraph(seed int64, n int) *pregel.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(int64(i)))
	}
	for i := 0; i < 2*n; i++ {
		a := pregel.VertexID(rng.Intn(n))
		b := pregel.VertexID(rng.Intn(n))
		if a == b {
			continue
		}
		if err := g.AddUndirectedEdge(a, b, nil); err != nil {
			panic(err)
		}
	}
	g.SortAllEdges()
	return g
}

// runSubgraph runs alg's subgraph-mode port over g, the way `graft run
// -mode subgraph` does.
func runSubgraph(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, workers int) *pregel.Stats {
	t.Helper()
	res, err := graft.RunAlgorithm(g, alg, graft.RunOptions{Engine: pregel.Config{NumWorkers: workers}, Subgraph: alg.Subgraph})
	if err != nil {
		t.Fatalf("%s subgraph mode: %v", alg.Name, err)
	}
	return res.Stats
}

// runBothModes runs alg over clones of g in vertex and subgraph mode
// and returns the two stats plus the final-value digests.
func runBothModes(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, workers int) (vs, ss *pregel.Stats, vd, sd string) {
	t.Helper()
	gv, gs := g.Clone(), g.Clone()
	vs = runAlg(t, alg, gv, pregel.Config{NumWorkers: workers})
	ss = runSubgraph(t, alg, gs, workers)
	return vs, ss, gv.ValuesDigest(), gs.ValuesDigest()
}

func TestSubgraphWCCEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := symRandomGraph(seed, 300)
		vs, ss, vd, sd := runBothModes(t, algorithms.NewConnectedComponents(), g, 4)
		if vd != sd {
			t.Fatalf("seed %d: value digest mismatch: vertex %s subgraph %s", seed, vd, sd)
		}
		if ss.Supersteps > vs.Supersteps {
			t.Errorf("seed %d: subgraph mode took %d supersteps, vertex mode %d",
				seed, ss.Supersteps, vs.Supersteps)
		}
	}
}

func TestSubgraphBFSEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := symRandomGraph(seed+100, 300)
		vs, ss, vd, sd := runBothModes(t, algorithms.NewBFS(0), g, 4)
		if vd != sd {
			t.Fatalf("seed %d: value digest mismatch: vertex %s subgraph %s", seed, vd, sd)
		}
		if ss.Supersteps > vs.Supersteps {
			t.Errorf("seed %d: subgraph mode took %d supersteps, vertex mode %d",
				seed, ss.Supersteps, vs.Supersteps)
		}
	}
}

// The CC-bp scenario: subgraph mode must collapse the bipartite
// graph's long label-propagation chains into a handful of supersteps.
func TestSubgraphWCCCollapsesBipartiteSupersteps(t *testing.T) {
	g := graphgen.RegularBipartite(400, 8)
	vs, ss, vd, sd := runBothModes(t, algorithms.NewConnectedComponents(), g, 4)
	if vd != sd {
		t.Fatalf("value digest mismatch: vertex %s subgraph %s", vd, sd)
	}
	if ss.Supersteps*10 > vs.Supersteps {
		t.Errorf("subgraph mode took %d supersteps, want <= 10%% of vertex mode's %d",
			ss.Supersteps, vs.Supersteps)
	}
	var subs, iters int64
	for _, step := range ss.PerSuperstep {
		subs += step.SubgraphsComputed
		iters += step.InternalIterations
	}
	if subs == 0 || iters == 0 {
		t.Errorf("subgraph telemetry empty: subgraphs=%d iterations=%d", subs, iters)
	}
}

// Subgraph PageRank is block Jacobi: internal contributions refresh
// every inner sweep, external ones only at the barrier. It shares the
// vertex-mode fixpoint, so at convergence the two agree — but it gets
// there in a fifth of the supersteps.
func TestSubgraphPageRankApproximatesVertexFixpoint(t *testing.T) {
	g := graphgen.WebGraph(400, 5, 7)
	gv, gs := g.Clone(), g.Clone()
	alg := algorithms.NewPageRank(100, 0.85)
	vstats := runAlg(t, alg, gv, pregel.Config{NumWorkers: 4})
	sstats := runSubgraph(t, alg, gs, 4)
	var l1, mass float64
	gv.Each(func(v *pregel.Vertex) {
		rv := v.Value().(*pregel.DoubleValue).Get()
		rs := gs.Vertex(v.ID()).Value().(*pregel.DoubleValue).Get()
		l1 += math.Abs(rv - rs)
		mass += rs
	})
	if l1 > 0.05 {
		t.Errorf("L1 distance to vertex-mode ranks = %g, want <= 0.05", l1)
	}
	if math.Abs(mass-1) > 0.05 {
		t.Errorf("subgraph rank mass %g, want ~1", mass)
	}
	if sstats.Supersteps >= vstats.Supersteps {
		t.Errorf("subgraph pagerank took %d supersteps, vertex mode %d",
			sstats.Supersteps, vstats.Supersteps)
	}
}

func TestSubgraphModeWithoutPortFails(t *testing.T) {
	g := symRandomGraph(7, 20)
	alg := algorithms.NewTriangleCount()
	if alg.SupportsSubgraph() {
		t.Skip("triangles grew a subgraph port; pick another algorithm")
	}
	if _, err := pregel.NewSubgraphJob(g, alg.Subgraph, pregel.Config{NumWorkers: 2}).Run(); err == nil {
		t.Fatal("subgraph mode without a port: want error, got nil")
	}
}

func TestSubgraphNames(t *testing.T) {
	names := algorithms.SubgraphNames()
	want := map[string]bool{"cc": true, "bfs": true, "pagerank": true}
	if len(names) != len(want) {
		t.Fatalf("SubgraphNames() = %v, want the keys of %v", names, want)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected subgraph algorithm %q", n)
		}
	}
}
