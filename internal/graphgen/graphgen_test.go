package graphgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"graft/internal/graphio"
	"graft/internal/pregel"
)

// TestGeneratorsPinned pins the column-built generators to the graphs
// their vertex-by-vertex versions produced: the first 16 hex digits of
// the SHA-256 of their adjacency text. At benchmark scale the same
// digests are 9cc17ea52aa10c71 for WebGraph(200000, 8, 42) and
// acf1ce001e25f086 for RegularBipartite(60000, 3).
func TestGeneratorsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *pregel.Graph
		want string
	}{
		{"WebGraph(5000, 8, 42)", WebGraph(5000, 8, 42), "fc78280712474d7d"},
		{"RegularBipartite(1000, 3)", RegularBipartite(1000, 3), "d88eef148c72b5bb"},
	} {
		var buf bytes.Buffer
		if err := graphio.WriteAdjacency(&buf, c.g); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: adjacency SHA-256 %s…, want %s…", c.name, got, c.want)
		}
	}
}

func TestWebGraphShape(t *testing.T) {
	g := WebGraph(5000, 8, 1)
	if g.NumVertices() != 5000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 4 || avg > 12 {
		t.Errorf("average out-degree %.2f outside [4, 12]", avg)
	}
	// The funnel: vertex 0 has exactly one out-edge and a large
	// in-degree.
	if g.Vertex(0).NumEdges() != 1 || g.Vertex(0).Edges()[0].Target != 1 {
		t.Errorf("funnel vertex 0 edges = %v", g.Vertex(0).Edges())
	}
	inDeg := map[pregel.VertexID]int{}
	g.Each(func(v *pregel.Vertex) {
		for _, e := range v.Edges() {
			inDeg[e.Target]++
		}
	})
	if inDeg[0] < 1000 {
		t.Errorf("funnel in-degree %d, want heavy", inDeg[0])
	}
	// Heavy tail: the max in-degree dwarfs the average.
	max := 0
	for _, d := range inDeg {
		if d > max {
			max = d
		}
	}
	if float64(max) < 10*avg {
		t.Errorf("max in-degree %d not heavy-tailed (avg %.1f)", max, avg)
	}
	// No self-loops.
	g.Each(func(v *pregel.Vertex) {
		for _, e := range v.Edges() {
			if e.Target == v.ID() {
				t.Fatalf("self-loop at %d", v.ID())
			}
		}
	})
}

func TestWebGraphDeterministic(t *testing.T) {
	a, b := WebGraph(500, 5, 7), WebGraph(500, 5, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	other := WebGraph(500, 5, 8)
	if a.NumEdges() == other.NumEdges() && sameAdjacency(a, other) {
		t.Error("different seeds produced identical graphs")
	}
	if !sameAdjacency(a, b) {
		t.Error("same seed produced different graphs")
	}
}

func sameAdjacency(a, b *pregel.Graph) bool {
	same := true
	a.Each(func(v *pregel.Vertex) {
		w := b.Vertex(v.ID())
		if w == nil || w.NumEdges() != v.NumEdges() {
			same = false
			return
		}
		for i, e := range v.Edges() {
			if w.Edges()[i].Target != e.Target {
				same = false
				return
			}
		}
	})
	return same
}

func TestSocialGraphSymmetricWeights(t *testing.T) {
	g := SocialGraph(2000, 6, 3)
	checked := 0
	g.Each(func(v *pregel.Vertex) {
		for _, e := range v.Edges() {
			w := e.Value.(*pregel.DoubleValue).Get()
			if w <= 0 || w > 1.01 {
				t.Fatalf("weight %v out of range", w)
			}
			rev, ok := g.Vertex(e.Target).EdgeValue(v.ID())
			if !ok {
				t.Fatalf("edge %d->%d has no reverse", v.ID(), e.Target)
			}
			if rev.(*pregel.DoubleValue).Get() != w {
				t.Fatalf("asymmetric weight on clean graph: %d<->%d", v.ID(), e.Target)
			}
			checked++
		}
	})
	if checked == 0 {
		t.Fatal("no edges")
	}
}

func TestRegularBipartiteIsRegularAndBipartite(t *testing.T) {
	g := RegularBipartite(1000, 3)
	if g.NumVertices() != 1000 || g.NumEdges() != 3000 {
		t.Fatalf("size %d/%d", g.NumVertices(), g.NumEdges())
	}
	half := pregel.VertexID(500)
	g.Each(func(v *pregel.Vertex) {
		if v.NumEdges() != 3 {
			t.Fatalf("vertex %d degree %d, want 3", v.ID(), v.NumEdges())
		}
		left := v.ID() < half
		for _, e := range v.Edges() {
			if (e.Target < half) == left {
				t.Fatalf("edge %d->%d within one side", v.ID(), e.Target)
			}
		}
	})
}

func TestRegularBipartiteOddAndTinySizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		g := RegularBipartite(n, 3)
		if g.NumVertices() == 0 {
			t.Errorf("n=%d: empty graph", n)
		}
	}
	// Degree clamped to side size.
	g := RegularBipartite(4, 99)
	g.Each(func(v *pregel.Vertex) {
		if v.NumEdges() > 2 {
			t.Errorf("degree %d with side size 2", v.NumEdges())
		}
	})
}

func TestCorruptWeights(t *testing.T) {
	g := SocialGraph(1000, 6, 3)
	n := CorruptWeights(g, 0.1, 5)
	if n == 0 {
		t.Fatal("nothing corrupted")
	}
	// Count asymmetric pairs; should roughly match the return value.
	asym := 0
	g.Each(func(v *pregel.Vertex) {
		for _, e := range v.Edges() {
			if e.Target <= v.ID() {
				continue
			}
			w := e.Value.(*pregel.DoubleValue).Get()
			rev, _ := g.Vertex(e.Target).EdgeValue(v.ID())
			if rev.(*pregel.DoubleValue).Get() != w {
				asym++
			}
		}
	})
	if asym != n {
		t.Errorf("reported %d corruptions, observed %d asymmetric pairs", n, asym)
	}
	if CorruptWeights(g, 0, 5) != 0 {
		t.Error("frac=0 corrupted something")
	}
}

func TestPlantPreferenceCycle(t *testing.T) {
	g := SocialGraph(100, 5, 1)
	before := g.NumVertices()
	ids := PlantPreferenceCycle(g)
	if g.NumVertices() != before+3 {
		t.Fatalf("vertices %d, want %d", g.NumVertices(), before+3)
	}
	// Each planted vertex's max-weight neighbor is the next in the
	// cycle, so preferences rotate.
	for i := 0; i < 3; i++ {
		v := g.Vertex(ids[i])
		bestW, bestT := -1.0, pregel.VertexID(-1)
		for _, e := range v.Edges() {
			if w := e.Value.(*pregel.DoubleValue).Get(); w > bestW {
				bestW, bestT = w, e.Target
			}
		}
		if bestT != ids[(i+1)%3] {
			t.Errorf("vertex %d prefers %d, want %d", ids[i], bestT, ids[(i+1)%3])
		}
	}
}

func TestDatasetsBuildAndReportSizes(t *testing.T) {
	for _, ds := range Table1Datasets(0.001, 1) {
		v, e := ds.Stats()
		if v <= 0 || e <= 0 {
			t.Errorf("%s: empty dataset (%d, %d)", ds.Name, v, e)
		}
		if ds.PaperVertices <= 0 || ds.PaperEdges <= 0 {
			t.Errorf("%s: paper sizes missing", ds.Name)
		}
	}
	for _, ds := range Table2Datasets(0.00001, 1) {
		v, e := ds.Stats()
		if v <= 0 || e <= 0 {
			t.Errorf("%s: empty dataset (%d, %d)", ds.Name, v, e)
		}
	}
}

func TestFindDataset(t *testing.T) {
	ds := Table1Datasets(0.001, 1)
	if _, err := FindDataset(ds, "web-BS"); err != nil {
		t.Error(err)
	}
	if _, err := FindDataset(ds, "nope"); err == nil {
		t.Error("expected error")
	}
}

// Property: RegularBipartite is d-regular for any n, d.
func TestRegularBipartitePropertyRegular(t *testing.T) {
	f := func(n uint8, d uint8) bool {
		g := RegularBipartite(int(n), int(d%8)+1)
		want := int(d%8) + 1
		half := int(n) / 2
		if half < 1 {
			half = 1
		}
		if want > half {
			want = half
		}
		ok := true
		g.Each(func(v *pregel.Vertex) {
			if v.NumEdges() != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
