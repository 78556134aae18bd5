package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// FuzzReadAdjacency: ReadAdjacency never panics and agrees with
// oracleRead, the strings.Fields reader it replaced: the same
// accept/reject verdict and error text, and on accept the same vertex
// IDs, the same targets per vertex in order and the same weight bits.
// WriteAdjacency emits oracleWrite's bytes, and whatever the reader
// accepts survives one WriteAdjacency → ReadAdjacency cycle unchanged,
// after which the text is a fixed point. The seed corpus is in
// testdata/fuzz/FuzzReadAdjacency.
func FuzzReadAdjacency(f *testing.F) {
	f.Add([]byte("# a comment\n\n1 2 3\n2 1:0.5 3:1.25\n3\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		g, err := ReadAdjacency(bytes.NewReader(raw))
		want, wantErr := oracleRead(bytes.NewReader(raw))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("error %v, oracle %v", err, wantErr)
		}
		if err != nil {
			return
		}
		sameGraph(t, want, g)
		var text, oracleText bytes.Buffer
		if err := WriteAdjacency(&text, g); err != nil {
			t.Fatal(err)
		}
		if err := oracleWrite(&oracleText, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text.Bytes(), oracleText.Bytes()) {
			t.Fatalf("wrote %q, oracle wrote %q", text.Bytes(), oracleText.Bytes())
		}
		again, err := ReadAdjacency(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("rejected its own output %q: %v", text.Bytes(), err)
		}
		sameGraph(t, g, again)
		var fixed bytes.Buffer
		if err := WriteAdjacency(&fixed, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fixed.Bytes(), text.Bytes()) {
			t.Fatalf("second write %q differs from first %q", fixed.Bytes(), text.Bytes())
		}
	})
}

// sameGraph fails t unless got has want's vertex IDs, and every vertex
// the same edge targets in order with the same weight bits.
func sameGraph(t *testing.T, want, got *pregel.Graph) {
	t.Helper()
	ids, gotIDs := want.VertexIDs(), got.VertexIDs()
	if !slices.Equal(ids, gotIDs) {
		t.Fatalf("vertex IDs %v came back as %v", ids, gotIDs)
	}
	for _, id := range ids {
		we, ge := want.Vertex(id).Edges(), got.Vertex(id).Edges()
		if len(we) != len(ge) {
			t.Fatalf("vertex %d: %d edges came back as %d", id, len(we), len(ge))
		}
		for i := range we {
			if we[i].Target != ge[i].Target || weightBits(we[i].Value) != weightBits(ge[i].Value) {
				t.Fatalf("vertex %d edge %d: %d:%v came back as %d:%v", id, i,
					we[i].Target, we[i].Value, ge[i].Target, ge[i].Value)
			}
		}
	}
}

// oracleRead is the strings.Fields / strconv reader that ReadAdjacency
// replaced, kept verbatim as the fuzz target's reference.
func oracleRead(r io.Reader) (*pregel.Graph, error) {
	g := pregel.NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		id, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad vertex ID %q: %w", lineNo, fields[0], err)
		}
		v := g.EnsureVertex(pregel.VertexID(id), nil)
		for _, f := range fields[1:] {
			var value pregel.Value
			target := f
			if idx := strings.IndexByte(f, ':'); idx >= 0 {
				target = f[:idx]
				w, err := strconv.ParseFloat(f[idx+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("graphio: line %d: bad weight %q: %w", lineNo, f, err)
				}
				value = pregel.NewDouble(w)
			}
			t, err := strconv.ParseInt(target, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad neighbor %q: %w", lineNo, target, err)
			}
			g.EnsureVertex(pregel.VertexID(t), nil)
			v.AddEdge(pregel.Edge{Target: pregel.VertexID(t), Value: value})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// oracleWrite is the fmt.Fprintf writer that WriteAdjacency replaced,
// kept verbatim as the fuzz target's reference.
func oracleWrite(w io.Writer, g *pregel.Graph) error {
	bw := bufio.NewWriter(w)
	for _, id := range g.VertexIDs() {
		v := g.Vertex(id)
		if _, err := fmt.Fprintf(bw, "%d", id); err != nil {
			return err
		}
		for _, e := range v.Edges() {
			if dv, ok := e.Value.(*pregel.DoubleValue); ok {
				fmt.Fprintf(bw, " %d:%s", e.Target, strconv.FormatFloat(dv.Get(), 'g', -1, 64))
			} else {
				fmt.Fprintf(bw, " %d", e.Target)
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
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
