package algorithms_test

import (
	"math"
	"testing"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// runAlg runs a vertex-mode job of a over g, the way `graft run` does.
func runAlg(t *testing.T, a *algorithms.Algorithm, g *pregel.Graph, cfg pregel.Config) *pregel.Stats {
	t.Helper()
	res, err := graft.RunAlgorithm(g, a, graft.RunOptions{Engine: cfg})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return res.Stats
}

// --- Connected components ---

func TestConnectedComponentsOnBipartite(t *testing.T) {
	g := graphgen.RegularBipartite(100, 3)
	runAlg(t, algorithms.NewConnectedComponents(), g, pregel.Config{NumWorkers: 4})
	g.Each(func(v *pregel.Vertex) {
		if got := v.Value().(*pregel.LongValue).Get(); got != 0 {
			t.Fatalf("vertex %d label %d, want 0 (graph is connected)", v.ID(), got)
		}
	})
}

func TestConnectedComponentsDisjoint(t *testing.T) {
	g := pregel.NewGraph()
	for i := 0; i < 6; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	// Components {0,1}, {2,3,4}, {5}.
	if err := g.AddUndirectedEdge(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUndirectedEdge(2, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUndirectedEdge(3, 4, nil); err != nil {
		t.Fatal(err)
	}
	runAlg(t, algorithms.NewConnectedComponents(), g, pregel.Config{NumWorkers: 2})
	want := map[pregel.VertexID]int64{0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 5: 5}
	for id, label := range want {
		if got := g.Vertex(id).Value().(*pregel.LongValue).Get(); got != label {
			t.Errorf("vertex %d: label %d, want %d", id, got, label)
		}
	}
}

// --- PageRank ---

func TestPageRankConservesMass(t *testing.T) {
	g := graphgen.WebGraph(500, 5, 7)
	runAlg(t, algorithms.NewPageRank(20, 0.85), g, pregel.Config{NumWorkers: 4})
	var total float64
	g.Each(func(v *pregel.Vertex) {
		total += v.Value().(*pregel.DoubleValue).Get()
	})
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("total rank = %v, want 1", total)
	}
}

func TestPageRankOrdering(t *testing.T) {
	// A tiny hub-and-spoke: everything links to 0, 0 links to 1.
	g := pregel.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	for i := 1; i < 5; i++ {
		if err := g.AddEdge(pregel.VertexID(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	runAlg(t, algorithms.NewPageRank(30, 0.85), g, pregel.Config{NumWorkers: 2})
	rank := func(id pregel.VertexID) float64 {
		return g.Vertex(id).Value().(*pregel.DoubleValue).Get()
	}
	if !(rank(0) > rank(1) && rank(1) > rank(2)) {
		t.Errorf("rank ordering wrong: hub=%v fed=%v leaf=%v", rank(0), rank(1), rank(2))
	}
	if rank(2) != rank(3) || rank(3) != rank(4) {
		t.Errorf("symmetric leaves differ: %v %v %v", rank(2), rank(3), rank(4))
	}
}

// --- SSSP ---

func TestSSSPWeightedPath(t *testing.T) {
	g := pregel.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	add := func(a, b pregel.VertexID, w float64) {
		if err := g.AddUndirectedEdge(a, b, pregel.NewDouble(w)); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, 1)
	add(1, 2, 2)
	add(0, 2, 10) // longer direct edge
	add(2, 3, 1)
	// vertex 4 unreachable
	runAlg(t, algorithms.NewSSSP(0), g, pregel.Config{NumWorkers: 3})
	want := map[pregel.VertexID]float64{0: 0, 1: 1, 2: 3, 3: 4, 4: math.Inf(1)}
	for id, d := range want {
		if got := g.Vertex(id).Value().(*pregel.DoubleValue).Get(); got != d {
			t.Errorf("dist(%d) = %v, want %v", id, got, d)
		}
	}
}

func TestSSSPUnweightedDefaultsToHops(t *testing.T) {
	g := pregel.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	for i := 0; i < 3; i++ {
		if err := g.AddUndirectedEdge(pregel.VertexID(i), pregel.VertexID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	runAlg(t, algorithms.NewSSSP(0), g, pregel.Config{})
	if got := g.Vertex(3).Value().(*pregel.DoubleValue).Get(); got != 3 {
		t.Errorf("dist(3) = %v, want 3", got)
	}
}

// --- Graph coloring ---

// colorConflicts returns pairs of adjacent vertices sharing a color,
// and verifies every vertex ended up colored.
func colorConflicts(t *testing.T, g *pregel.Graph) int {
	t.Helper()
	conflicts := 0
	g.Each(func(v *pregel.Vertex) {
		val, ok := v.Value().(*algorithms.GCValue)
		if !ok || val.State != algorithms.GCColored {
			t.Fatalf("vertex %d not colored: %v", v.ID(), v.Value())
		}
		for _, e := range v.Edges() {
			if e.Target <= v.ID() {
				continue
			}
			nval := g.Vertex(e.Target).Value().(*algorithms.GCValue)
			if nval.Color == val.Color {
				conflicts++
			}
		}
	})
	return conflicts
}

func TestGraphColoringIsProper(t *testing.T) {
	g := graphgen.RegularBipartite(200, 3)
	stats := runAlg(t, algorithms.NewGraphColoring(42), g, pregel.Config{NumWorkers: 4})
	if stats.Reason != pregel.ReasonConverged {
		t.Fatalf("GC did not converge: %v", stats.Reason)
	}
	if n := colorConflicts(t, g); n != 0 {
		t.Errorf("proper coloring has %d conflicts", n)
	}
}

func TestGraphColoringOnSocialGraph(t *testing.T) {
	g := graphgen.SocialGraph(300, 6, 1)
	runAlg(t, algorithms.NewGraphColoring(7), g, pregel.Config{NumWorkers: 4})
	if n := colorConflicts(t, g); n != 0 {
		t.Errorf("proper coloring has %d conflicts", n)
	}
}

func TestBuggyGraphColoringAssignsAdjacentSameColor(t *testing.T) {
	// The §4.1 scenario: the buggy MIS puts adjacent vertices in the
	// same set. With the coarse buggy priority range, collisions are
	// essentially certain on a few hundred vertices.
	g := graphgen.RegularBipartite(400, 3)
	stats := runAlg(t, algorithms.NewBuggyGraphColoring(42), g, pregel.Config{NumWorkers: 4})
	if stats.Reason != pregel.ReasonConverged {
		t.Fatalf("buggy GC did not converge: %v", stats.Reason)
	}
	if n := colorConflicts(t, g); n == 0 {
		t.Error("buggy GC produced a proper coloring; the planted bug did not fire")
	}
}

func TestGraphColoringUsesFewColors(t *testing.T) {
	// A 3-regular bipartite graph needs few colors; MIS-based coloring
	// should stay well below the trivial bound.
	g := graphgen.RegularBipartite(100, 3)
	runAlg(t, algorithms.NewGraphColoring(3), g, pregel.Config{NumWorkers: 2})
	colors := map[int32]bool{}
	g.Each(func(v *pregel.Vertex) {
		colors[v.Value().(*algorithms.GCValue).Color] = true
	})
	if len(colors) > 8 {
		t.Errorf("used %d colors on a 3-regular graph", len(colors))
	}
}

func TestGraphColoringDeterministicForSeed(t *testing.T) {
	run := func() map[pregel.VertexID]int32 {
		g := graphgen.RegularBipartite(100, 3)
		runAlg(t, algorithms.NewGraphColoring(5), g, pregel.Config{NumWorkers: 3})
		out := map[pregel.VertexID]int32{}
		g.Each(func(v *pregel.Vertex) { out[v.ID()] = v.Value().(*algorithms.GCValue).Color })
		return out
	}
	a, b := run(), run()
	for id, c := range a {
		if b[id] != c {
			t.Fatalf("coloring not deterministic at vertex %d: %d vs %d", id, c, b[id])
		}
	}
}

// --- Random walk ---

func TestRandomWalkConservesWalkers(t *testing.T) {
	// On a graph where every vertex has out-edges, walkers are
	// conserved: total = 100 * n every superstep.
	g := graphgen.RegularBipartite(100, 3)
	runAlg(t, algorithms.NewRandomWalk(9, 10), g, pregel.Config{NumWorkers: 4})
	var total int64
	g.Each(func(v *pregel.Vertex) {
		total += v.Value().(*pregel.LongValue).Get()
	})
	if want := int64(100 * algorithms.InitialWalkers); total != want {
		t.Errorf("total walkers = %d, want %d", total, want)
	}
}

func TestRandomWalk16Overflows(t *testing.T) {
	// The §4.2 scenario: the funnel hub accumulates enough walkers
	// that a 16-bit per-edge counter wraps negative.
	g := graphgen.WebGraph(2000, 5, 11)
	sawNegative := false
	listener := &negativeWatcher{}
	a := algorithms.NewRandomWalk16(9, 8)
	cfg := pregel.Config{NumWorkers: 4, Listener: listener}
	runAlg(t, a, g, cfg)
	g.Each(func(v *pregel.Vertex) {
		if v.Value().(*pregel.LongValue).Get() < 0 {
			sawNegative = true
		}
	})
	var total int64
	g.Each(func(v *pregel.Vertex) { total += v.Value().(*pregel.LongValue).Get() })
	if !sawNegative && total == int64(g.NumVertices())*algorithms.InitialWalkers {
		t.Error("16-bit walk neither produced negative counts nor lost walkers; the planted bug did not fire")
	}
}

// negativeWatcher is a no-op listener placeholder (the overflow check
// reads final values); it keeps the listener plumbing exercised.
type negativeWatcher struct{}

func (*negativeWatcher) JobStarted(pregel.JobInfo)                    {}
func (*negativeWatcher) SuperstepStarted(int, pregel.SuperstepInfo)   {}
func (*negativeWatcher) SuperstepFinished(int, pregel.SuperstepStats) {}
func (*negativeWatcher) JobFinished(*pregel.Stats, error)             {}

func TestRandomWalkWideDoesNotOverflow(t *testing.T) {
	g := graphgen.WebGraph(2000, 5, 11)
	runAlg(t, algorithms.NewRandomWalk(9, 8), g, pregel.Config{NumWorkers: 4})
	var total int64
	g.Each(func(v *pregel.Vertex) {
		w := v.Value().(*pregel.LongValue).Get()
		if w < 0 {
			t.Fatalf("vertex %d has negative walkers %d in the fixed variant", v.ID(), w)
		}
		total += w
	})
	if want := g.NumVertices() * algorithms.InitialWalkers; total != want {
		t.Errorf("total walkers = %d, want %d", total, want)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	run := func() int64 {
		g := graphgen.WebGraph(300, 4, 5)
		runAlg(t, algorithms.NewRandomWalk(3, 6), g, pregel.Config{NumWorkers: 3})
		return g.Vertex(0).Value().(*pregel.LongValue).Get()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("random walk not deterministic: %d vs %d", a, b)
	}
}

// --- Maximum-weight matching ---

func TestMWMConvergesOnSymmetricGraph(t *testing.T) {
	g := graphgen.SocialGraph(200, 5, 3)
	orig := g.Clone()
	stats := runAlg(t, algorithms.NewMaximumWeightMatching(5000), g, pregel.Config{NumWorkers: 4})
	if stats.Reason != pregel.ReasonConverged {
		t.Fatalf("MWM on symmetric weights should converge, got %v", stats.Reason)
	}
	// Matching is consistent: matched pairs are mutual and disjoint,
	// and every matched pair was an edge of the original graph.
	matched := map[pregel.VertexID]pregel.VertexID{}
	g.Each(func(v *pregel.Vertex) {
		val := v.Value().(*algorithms.MWMValue)
		if val.Matched {
			matched[v.ID()] = val.MatchedTo
		}
	})
	if len(matched) == 0 {
		t.Fatal("no vertices matched")
	}
	for a, b := range matched {
		if matched[b] != a {
			t.Errorf("vertex %d matched to %d, but %d matched to %d", a, b, b, matched[b])
		}
		if !orig.Vertex(a).HasEdge(b) {
			t.Errorf("matched pair (%d,%d) was not an edge", a, b)
		}
	}
}

func TestMWMPicksHeaviestEdgeOnPath(t *testing.T) {
	// Path 0-1-2-3 with middle edge heaviest: matching must take (1,2)
	// and leave 0, 3 unmatched.
	g := pregel.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	weights := []float64{1, 5, 1}
	for i := 0; i < 3; i++ {
		if err := g.AddUndirectedEdge(pregel.VertexID(i), pregel.VertexID(i+1), pregel.NewDouble(weights[i])); err != nil {
			t.Fatal(err)
		}
	}
	runAlg(t, algorithms.NewMaximumWeightMatching(100), g, pregel.Config{NumWorkers: 2})
	v1 := g.Vertex(1).Value().(*algorithms.MWMValue)
	v2 := g.Vertex(2).Value().(*algorithms.MWMValue)
	if !v1.Matched || v1.MatchedTo != 2 || !v2.Matched || v2.MatchedTo != 1 {
		t.Errorf("middle edge not matched: %v %v", v1, v2)
	}
	for _, id := range []pregel.VertexID{0, 3} {
		if g.Vertex(id).Value().(*algorithms.MWMValue).Matched {
			t.Errorf("endpoint %d should be unmatched", id)
		}
	}
}

func TestMWMLivelocksOnAsymmetricWeights(t *testing.T) {
	// The §4.3 scenario: corrupted weights make MWM loop forever,
	// surfacing as the MaxSupersteps safety stop.
	g := graphgen.SocialGraph(100, 5, 3)
	graphgen.PlantPreferenceCycle(g)
	graphgen.CorruptWeights(g, 0.02, 99)
	stats := runAlg(t, algorithms.NewMaximumWeightMatching(200), g, pregel.Config{NumWorkers: 4})
	if stats.Reason != pregel.ReasonMaxSupersteps {
		t.Fatalf("MWM on corrupted weights should hit the superstep cap, got %v after %d supersteps",
			stats.Reason, stats.Supersteps)
	}
}
