package algorithms_test

import (
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// completeGraph builds K_n with vertex IDs base..base+n-1.
func completeGraph(t *testing.T, g *pregel.Graph, base pregel.VertexID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g.AddVertex(base+pregel.VertexID(i), nil)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddUndirectedEdge(base+pregel.VertexID(i), base+pregel.VertexID(j), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTriangleCountOnKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *pregel.Graph
		want  int64
	}{
		{"single-triangle", func(t *testing.T) *pregel.Graph {
			g := pregel.NewGraph()
			completeGraph(t, g, 0, 3)
			return g
		}, 1},
		{"K5", func(t *testing.T) *pregel.Graph {
			g := pregel.NewGraph()
			completeGraph(t, g, 0, 5)
			return g
		}, 10},
		{"two-disjoint-triangles", func(t *testing.T) *pregel.Graph {
			g := pregel.NewGraph()
			completeGraph(t, g, 0, 3)
			completeGraph(t, g, 10, 3)
			return g
		}, 2},
		{"bipartite-has-none", func(t *testing.T) *pregel.Graph {
			return graphgen.RegularBipartite(100, 3)
		}, 0},
		{"path-has-none", func(t *testing.T) *pregel.Graph {
			g := pregel.NewGraph()
			for i := 0; i < 5; i++ {
				g.AddVertex(pregel.VertexID(i), nil)
			}
			for i := 0; i < 4; i++ {
				if err := g.AddUndirectedEdge(pregel.VertexID(i), pregel.VertexID(i+1), nil); err != nil {
					t.Fatal(err)
				}
			}
			return g
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.build(t)
			runAlg(t, algorithms.NewTriangleCount(), g, pregel.Config{NumWorkers: 3})
			if got := algorithms.TotalTriangles(g); got != c.want {
				t.Errorf("triangles = %d, want %d", got, c.want)
			}
		})
	}
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := graphgen.SocialGraph(300, 6, 5)
	// Brute force over the original adjacency.
	adj := map[pregel.VertexID]map[pregel.VertexID]bool{}
	g.Each(func(v *pregel.Vertex) {
		m := map[pregel.VertexID]bool{}
		for _, e := range v.Edges() {
			m[e.Target] = true
		}
		adj[v.ID()] = m
	})
	var want int64
	ids := g.VertexIDs()
	for _, a := range ids {
		for b := range adj[a] {
			if b <= a {
				continue
			}
			for c := range adj[b] {
				if c <= b || !adj[a][c] {
					continue
				}
				want++
			}
		}
	}
	runAlg(t, algorithms.NewTriangleCount(), g, pregel.Config{NumWorkers: 4})
	if got := algorithms.TotalTriangles(g); got != want {
		t.Errorf("triangles = %d, brute force = %d", got, want)
	}
}

// refKCore computes the k-core by brute-force peeling.
func refKCore(g *pregel.Graph, k int) map[pregel.VertexID]bool {
	deg := map[pregel.VertexID]int{}
	adj := map[pregel.VertexID][]pregel.VertexID{}
	alive := map[pregel.VertexID]bool{}
	g.Each(func(v *pregel.Vertex) {
		alive[v.ID()] = true
		deg[v.ID()] = v.NumEdges()
		for _, e := range v.Edges() {
			adj[v.ID()] = append(adj[v.ID()], e.Target)
		}
	})
	changed := true
	for changed {
		changed = false
		for id, ok := range alive {
			if ok && deg[id] < k {
				alive[id] = false
				changed = true
				for _, nbr := range adj[id] {
					if alive[nbr] {
						deg[nbr]--
					}
				}
			}
		}
	}
	return alive
}

func TestKCoreMatchesBruteForce(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := graphgen.SocialGraph(300, 6, 11)
		want := refKCore(g, k)
		run := g.Clone()
		stats := runAlg(t, algorithms.NewKCore(k), run, pregel.Config{NumWorkers: 4})
		if stats.Reason != pregel.ReasonConverged {
			t.Fatalf("k=%d: %v", k, stats.Reason)
		}
		run.Each(func(v *pregel.Vertex) {
			got := v.Value().(*pregel.BoolValue).Get()
			if got != want[v.ID()] {
				t.Errorf("k=%d vertex %d: in-core=%v, brute force says %v", k, v.ID(), got, want[v.ID()])
			}
		})
	}
}

func TestKCoreOnRegularGraph(t *testing.T) {
	// A 3-regular graph IS its own 3-core and has an empty 4-core.
	g := graphgen.RegularBipartite(100, 3)
	runAlg(t, algorithms.NewKCore(3), g, pregel.Config{NumWorkers: 2})
	if got := algorithms.KCoreSize(g); got != 100 {
		t.Errorf("3-core of 3-regular graph = %d, want 100", got)
	}
	g2 := graphgen.RegularBipartite(100, 3)
	runAlg(t, algorithms.NewKCore(4), g2, pregel.Config{NumWorkers: 2})
	if got := algorithms.KCoreSize(g2); got != 0 {
		t.Errorf("4-core of 3-regular graph = %d, want 0", got)
	}
}

func TestKCorePeelsChainIntoCore(t *testing.T) {
	// K4 with a pendant path: the path peels away step by step, K4
	// survives as the 3-core (the cascade is the interesting part).
	g := pregel.NewGraph()
	completeGraph(t, g, 0, 4)
	for i := 10; i < 14; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	if err := g.AddUndirectedEdge(0, 10, nil); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := g.AddUndirectedEdge(pregel.VertexID(i), pregel.VertexID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	runAlg(t, algorithms.NewKCore(3), g, pregel.Config{NumWorkers: 3})
	if got := algorithms.KCoreSize(g); got != 4 {
		t.Errorf("3-core size = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if !g.Vertex(pregel.VertexID(i)).Value().(*pregel.BoolValue).Get() {
			t.Errorf("K4 vertex %d not in core", i)
		}
	}
}

func TestLabelPropagationTwoCommunities(t *testing.T) {
	// Two K6 cliques joined by a single bridge edge.
	g := pregel.NewGraph()
	completeGraph(t, g, 0, 6)
	completeGraph(t, g, 100, 6)
	if err := g.AddUndirectedEdge(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	stats := runAlg(t, algorithms.NewLabelPropagation(50), g, pregel.Config{NumWorkers: 3})
	if stats.Reason != pregel.ReasonMasterHalted && stats.Reason != pregel.ReasonConverged {
		t.Fatalf("LPA did not stop cleanly: %v", stats.Reason)
	}
	labels := map[int64]int{}
	g.Each(func(v *pregel.Vertex) {
		labels[v.Value().(*pregel.LongValue).Get()]++
	})
	if len(labels) != 2 {
		t.Fatalf("found %d communities, want 2 (%v)", len(labels), labels)
	}
	// Each clique holds one community of size 6.
	for label, size := range labels {
		if size != 6 {
			t.Errorf("community %d has size %d", label, size)
		}
	}
}

func TestLabelPropagationEarlyStop(t *testing.T) {
	// On a clique everything converges to label 0 almost immediately;
	// the master must halt well before the iteration budget.
	g := pregel.NewGraph()
	completeGraph(t, g, 0, 8)
	stats := runAlg(t, algorithms.NewLabelPropagation(1000), g, pregel.Config{NumWorkers: 2})
	if stats.Supersteps > 10 {
		t.Errorf("LPA ran %d supersteps on a clique", stats.Supersteps)
	}
	g.Each(func(v *pregel.Vertex) {
		if got := v.Value().(*pregel.LongValue).Get(); got != 0 {
			t.Errorf("vertex %d label %d, want 0", v.ID(), got)
		}
	})
}

func TestLabelPropagationDeterministic(t *testing.T) {
	run := func() map[pregel.VertexID]int64 {
		g := graphgen.SocialGraph(200, 5, 9)
		runAlg(t, algorithms.NewLabelPropagation(30), g, pregel.Config{NumWorkers: 4})
		out := map[pregel.VertexID]int64{}
		g.Each(func(v *pregel.Vertex) { out[v.ID()] = v.Value().(*pregel.LongValue).Get() })
		return out
	}
	a, b := run(), run()
	for id := range a {
		if a[id] != b[id] {
			t.Fatalf("labels differ at %d: %d vs %d", id, a[id], b[id])
		}
	}
}
