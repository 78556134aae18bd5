package graphio

import (
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"graft/internal/graphgen"
	"graft/internal/pregel"
)

func TestReadAdjacencyBasics(t *testing.T) {
	input := `# a comment

1 2 3
2 1:0.5 3:1.25
3
`
	g, err := ReadAdjacency(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if v, ok := g.Vertex(2).EdgeValue(3); !ok || v.(*pregel.DoubleValue).Get() != 1.25 {
		t.Errorf("weighted edge lost: %v", v)
	}
	if v, ok := g.Vertex(1).EdgeValue(2); !ok || v != nil {
		t.Errorf("unweighted edge got a value: %v", v)
	}
}

func TestReadAdjacencyCreatesTargets(t *testing.T) {
	g, err := ReadAdjacency(strings.NewReader("5 99\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Vertex(99) == nil {
		t.Fatal("target-only vertex missing")
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	for _, bad := range []string{
		"abc 1\n",
		"1 xyz\n",
		"1 2:notanumber\n",
	} {
		if _, err := ReadAdjacency(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := graphgen.SocialGraph(200, 5, 3)
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAdjacency(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	g.Each(func(v *pregel.Vertex) {
		w := got.Vertex(v.ID())
		if w == nil || w.NumEdges() != v.NumEdges() {
			t.Fatalf("vertex %d adjacency mismatch", v.ID())
		}
		for i, e := range v.Edges() {
			ge := w.Edges()[i]
			if ge.Target != e.Target {
				t.Fatalf("vertex %d edge %d target %d vs %d", v.ID(), i, ge.Target, e.Target)
			}
			if !pregel.ValuesEqual(ge.Value, e.Value) {
				t.Fatalf("vertex %d edge %d weight mismatch", v.ID(), i)
			}
		}
	})
}

func TestUndirect(t *testing.T) {
	g := pregel.NewGraph()
	for i := 0; i < 3; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	if err := g.AddEdge(0, 1, pregel.NewDouble(2)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUndirectedEdge(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	added := Undirect(g)
	if added != 1 {
		t.Fatalf("added %d reverse edges, want 1", added)
	}
	if v, ok := g.Vertex(1).EdgeValue(0); !ok || !pregel.ValuesEqual(v, pregel.NewDouble(2)) {
		t.Errorf("reverse edge value %v", v)
	}
	// Idempotent.
	if Undirect(g) != 0 {
		t.Error("second Undirect added edges")
	}
}

// FuzzReadAdjacency: ReadAdjacency never panics, and whatever it
// accepts survives one WriteAdjacency → ReadAdjacency cycle unchanged —
// the same vertex IDs, the same edge targets in order and the same
// weight bits — after which the text is a fixed point. The seed corpus
// is in testdata/fuzz/FuzzReadAdjacency.
func FuzzReadAdjacency(f *testing.F) {
	f.Add([]byte("# a comment\n\n1 2 3\n2 1:0.5 3:1.25\n3\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := ReadAdjacency(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := WriteAdjacency(&text, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAdjacency(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own output %q: %v", text.Bytes(), err)
		}
		ids, againIDs := g.VertexIDs(), again.VertexIDs()
		if !slices.Equal(ids, againIDs) {
			t.Fatalf("vertex IDs %v came back as %v", ids, againIDs)
		}
		for _, id := range ids {
			want, got := g.Vertex(id).Edges(), again.Vertex(id).Edges()
			if len(want) != len(got) {
				t.Fatalf("vertex %d: %d edges came back as %d", id, len(want), len(got))
			}
			for i := range want {
				if want[i].Target != got[i].Target || weightBits(want[i].Value) != weightBits(got[i].Value) {
					t.Fatalf("vertex %d edge %d: %d:%v came back as %d:%v", id, i,
						want[i].Target, want[i].Value, got[i].Target, got[i].Value)
				}
			}
		}
		var fixed bytes.Buffer
		if err := WriteAdjacency(&fixed, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fixed.Bytes(), text.Bytes()) {
			t.Fatalf("second write %q differs from first %q", fixed.Bytes(), text.Bytes())
		}
	})
}

// weightBits is an edge weight's float64 bits, or "none" for an
// unweighted edge, so -0 and 0 (and NaN payloads) compare as distinct.
func weightBits(v pregel.Value) string {
	if dv, ok := v.(*pregel.DoubleValue); ok {
		return strconv.FormatUint(math.Float64bits(dv.Get()), 16)
	}
	return "none"
}

// Property: any graph over small IDs with integer weights round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(edges [][2]uint8, weights []uint8) bool {
		g := pregel.NewGraph()
		for i, e := range edges {
			from, to := pregel.VertexID(e[0]), pregel.VertexID(e[1])
			g.EnsureVertex(from, nil)
			g.EnsureVertex(to, nil)
			var val pregel.Value
			if i < len(weights) {
				val = pregel.NewDouble(float64(weights[i]) / 4)
			}
			g.Vertex(from).AddEdge(pregel.Edge{Target: to, Value: val})
		}
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			return false
		}
		got, err := ReadAdjacency(&buf)
		if err != nil {
			return false
		}
		return got.NumVertices() == g.NumVertices() && got.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
