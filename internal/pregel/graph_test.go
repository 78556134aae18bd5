package pregel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGraphBuild(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NewLong(10))
	g.AddVertex(2, NewLong(20))
	g.AddVertex(3, nil)
	if err := g.AddEdge(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUndirectedEdge(2, 3, NewDouble(1.5)); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if err := g.AddEdge(1, 99, nil); err == nil {
		t.Error("expected error for edge to missing vertex")
	}
	if err := g.AddEdge(99, 1, nil); err == nil {
		t.Error("expected error for edge from missing vertex")
	}
	ids := g.VertexIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("VertexIDs = %v", ids)
	}
}

func TestGraphAddVertexReplaces(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NewLong(1))
	g.AddVertex(2, NewLong(2))
	if err := g.AddEdge(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	g.AddVertex(1, NewLong(100)) // replaces vertex and drops its edges
	if g.NumEdges() != 0 {
		t.Errorf("edges after replace = %d, want 0", g.NumEdges())
	}
	if got := g.Vertex(1).Value().(*LongValue).Get(); got != 100 {
		t.Errorf("value after replace = %d", got)
	}
}

func TestGraphEnsureVertex(t *testing.T) {
	g := NewGraph()
	v := g.EnsureVertex(5, func() Value { return NewLong(7) })
	if v.Value().(*LongValue).Get() != 7 {
		t.Error("default value not applied")
	}
	again := g.EnsureVertex(5, func() Value { return NewLong(9) })
	if again != v {
		t.Error("EnsureVertex created a duplicate")
	}
	nilDefault := g.EnsureVertex(6, nil)
	if nilDefault.Value() != nil {
		t.Error("nil default should yield nil value")
	}
}

func TestGraphCloneIsDeep(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NewLong(1))
	g.AddVertex(2, NewLong(2))
	if err := g.AddEdge(1, 2, NewDouble(3.5)); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	c.Vertex(1).Value().(*LongValue).Set(999)
	c.Vertex(1).Edges()[0].Value.(*DoubleValue).Set(0)
	c.Vertex(2).VoteToHalt()
	c.Vertex(1).AddEdge(Edge{Target: 2})

	if g.Vertex(1).Value().(*LongValue).Get() != 1 {
		t.Error("clone shares vertex values")
	}
	if g.Vertex(1).Edges()[0].Value.(*DoubleValue).Get() != 3.5 {
		t.Error("clone shares edge values")
	}
	if g.Vertex(2).Halted() {
		t.Error("clone shares halted flag")
	}
	if g.Vertex(1).NumEdges() != 1 {
		t.Error("clone shares adjacency")
	}
	if c.NumVertices() != g.NumVertices() {
		t.Error("clone vertex count mismatch")
	}

	// A bulk-built graph and its clone keep every vertex's edges in one
	// shared slab: growing vertex 1 past its own edges must reallocate
	// them rather than write over vertex 2's, and mutating the clone
	// must leave the base alone.
	b := NewGraphFromEdges(nil, []VertexID{1, 1, 2, 2, 3}, []VertexID{2, 3, 1, 3, 1}, nil)
	bc := b.Clone()
	for _, x := range []*Graph{bc, b} {
		v := x.Vertex(1)
		v.RemoveEdges(2)
		v.AddEdge(Edge{Target: 1})
		v.AddEdge(Edge{Target: 2})
		if got := edgeTargets(x.Vertex(1)); !slices.Equal(got, []VertexID{3, 1, 2}) {
			t.Errorf("vertex 1 edges after mutation = %v", got)
		}
		if got := edgeTargets(x.Vertex(2)); !slices.Equal(got, []VertexID{1, 3}) {
			t.Errorf("growing vertex 1 changed vertex 2's edges to %v", got)
		}
		if x == bc {
			if got := edgeTargets(b.Vertex(1)); !slices.Equal(got, []VertexID{2, 3}) {
				t.Errorf("mutating the clone changed the base: %v", got)
			}
		}
	}
}

// TestGraphCloneAcrossSlabs: a clone bigger than one slab has every
// vertex's edges, and growing each of them leaves the others intact.
func TestGraphCloneAcrossSlabs(t *testing.T) {
	n := 3*cloneChunk + 7
	var src, dst []VertexID
	for i := 0; i < n; i++ {
		for j := 0; j < i%5; j++ {
			src, dst = append(src, VertexID(i)), append(dst, VertexID((7*i+j)%n))
		}
	}
	g := NewGraphFromEdges(nil, src, dst, nil)
	c := g.Clone()
	ids := c.VertexIDs()
	for _, id := range ids {
		c.Vertex(id).AddEdge(Edge{Target: id})
	}
	for _, id := range ids {
		want := append(slices.Clone(g.Vertex(id).Edges()), Edge{Target: id})
		if got := c.Vertex(id).Edges(); !slices.Equal(got, want) {
			t.Fatalf("vertex %d: clone edges %v, want %v", id, got, want)
		}
	}
}

func edgeTargets(v *Vertex) []VertexID {
	var ts []VertexID
	for _, e := range v.Edges() {
		ts = append(ts, e.Target)
	}
	return ts
}

// TestNewGraphFromEdgesMatchesIncremental: the bulk builder makes the
// graph that EnsureVertex and Vertex.AddEdge over the same columns make
// (vertex IDs, nil values, every vertex's targets and edge values in
// order), on dense and sparse ID ranges with duplicate edges,
// self-loops, edge-less vertices and empty columns.
func TestNewGraphFromEdgesMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dense := func() VertexID { return VertexID(rng.Intn(40) - 10) }
	sparse := func() VertexID {
		switch rng.Intn(4) {
		case 0:
			return VertexID(math.MinInt64 + rng.Intn(3))
		case 1:
			return VertexID(math.MaxInt64 - rng.Intn(3))
		}
		return VertexID(rng.Int63() - rng.Int63())
	}
	for trial := 0; trial < 200; trial++ {
		id := dense
		if trial%2 == 1 {
			id = sparse
		}
		nIDs, nEdges := rng.Intn(8), rng.Intn(60)
		if trial < 2 {
			nIDs, nEdges = 0, 0
		}
		ids := make([]VertexID, nIDs)
		for i := range ids {
			ids[i] = id()
		}
		src, dst := make([]VertexID, nEdges), make([]VertexID, nEdges)
		var vals []Value
		if trial%3 == 0 {
			vals = make([]Value, nEdges)
		}
		for i := range src {
			src[i] = id()
			switch rng.Intn(4) {
			case 0:
				dst[i] = src[i] // self-loop
			case 1:
				if i > 0 { // duplicate of the previous edge
					src[i], dst[i] = src[i-1], dst[i-1]
					break
				}
				fallthrough
			default:
				dst[i] = id()
			}
			if vals != nil && rng.Intn(2) == 0 {
				vals[i] = NewDouble(float64(i))
			}
		}
		want := NewGraph()
		for _, v := range ids {
			want.EnsureVertex(v, nil)
		}
		for i := range src {
			var val Value
			if vals != nil {
				val = vals[i]
			}
			want.EnsureVertex(src[i], nil).AddEdge(Edge{Target: dst[i], Value: val})
			want.EnsureVertex(dst[i], nil)
		}
		got := NewGraphFromEdges(ids, src, dst, vals)
		if !slices.Equal(got.VertexIDs(), want.VertexIDs()) {
			t.Fatalf("trial %d: vertex IDs %v, want %v", trial, got.VertexIDs(), want.VertexIDs())
		}
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: %d edges, want %d", trial, got.NumEdges(), want.NumEdges())
		}
		for _, v := range want.VertexIDs() {
			gv, wv := got.Vertex(v), want.Vertex(v)
			if gv.Value() != nil || !slices.Equal(gv.Edges(), wv.Edges()) {
				t.Fatalf("trial %d: vertex %d edges %v value %v, want %v",
					trial, v, gv.Edges(), gv.Value(), wv.Edges())
			}
		}
	}
}

func TestVertexEdgeOps(t *testing.T) {
	v := NewDetachedVertex(1, NewLong(0))
	v.AddEdge(Edge{Target: 3, Value: NewDouble(1)})
	v.AddEdge(Edge{Target: 2, Value: NewDouble(2)})
	v.AddEdge(Edge{Target: 3, Value: NewDouble(3)}) // duplicate target allowed

	if v.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", v.NumEdges())
	}
	if !v.HasEdge(2) || v.HasEdge(99) {
		t.Error("HasEdge wrong")
	}
	if val, ok := v.EdgeValue(3); !ok || val.(*DoubleValue).Get() != 1 {
		t.Error("EdgeValue should return first matching edge")
	}
	if !v.SetEdgeValue(2, NewDouble(20)) {
		t.Error("SetEdgeValue failed")
	}
	if val, _ := v.EdgeValue(2); val.(*DoubleValue).Get() != 20 {
		t.Error("SetEdgeValue did not stick")
	}
	if v.SetEdgeValue(99, NewDouble(0)) {
		t.Error("SetEdgeValue to missing edge should fail")
	}

	v.SortEdges()
	if v.Edges()[0].Target != 2 {
		t.Errorf("after sort, first target = %d", v.Edges()[0].Target)
	}

	if n := v.RemoveEdges(3); n != 2 {
		t.Errorf("RemoveEdges(3) = %d, want 2", n)
	}
	if v.NumEdges() != 1 {
		t.Errorf("NumEdges after remove = %d", v.NumEdges())
	}
	v.RemoveAllEdges()
	if v.NumEdges() != 0 {
		t.Error("RemoveAllEdges left edges")
	}
}

func TestVertexEncodeDecode(t *testing.T) {
	v := NewDetachedVertex(42, NewText("hello"))
	v.AddEdge(Edge{Target: 1, Value: NewDouble(1.5)})
	v.AddEdge(Edge{Target: 2, Value: nil})
	v.VoteToHalt()

	e := NewEncoder()
	v.encode(e)
	got, err := decodeVertex(NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != 42 || !got.Halted() || got.NumEdges() != 2 {
		t.Errorf("decoded vertex mismatch: %+v", got)
	}
	if !ValuesEqual(got.Value(), NewText("hello")) {
		t.Error("decoded value mismatch")
	}
	if got.Edges()[1].Value != nil {
		t.Error("nil edge value should survive round trip")
	}
	if !ValuesEqual(got.Edges()[0].Value, NewDouble(1.5)) {
		t.Error("edge value mismatch")
	}
}

// Property: a graph built from any set of vertex IDs reports them back
// sorted and deduplicated, and Clone preserves the structure exactly.
func TestGraphPropertyCloneEquivalence(t *testing.T) {
	f := func(ids []int16) bool {
		g := NewGraph()
		for _, raw := range ids {
			g.AddVertex(VertexID(raw), NewLong(int64(raw)))
		}
		for i := 1; i < len(ids); i++ {
			_ = g.AddEdge(VertexID(ids[i-1]), VertexID(ids[i]), nil)
		}
		c := g.Clone()
		if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
			return false
		}
		gids, cids := g.VertexIDs(), c.VertexIDs()
		if len(gids) != len(cids) {
			return false
		}
		for i := range gids {
			if gids[i] != cids[i] {
				return false
			}
			if g.Vertex(gids[i]).NumEdges() != c.Vertex(cids[i]).NumEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphOrderedWalks builds graphs vertex by vertex in ascending,
// descending, shuffled and replacing AddVertex orders and through
// EnsureVertex, over dense IDs and IDs scattered over ±2^41, and checks
// every ordered walk against a sorted oracle: VertexIDs, Each,
// ValuesDigest, and a Clone that keeps values, halt flags, edges and
// order. No read may change the graph's own order.
func TestGraphOrderedWalks(t *testing.T) {
	const n = 300
	spreads := map[string]func(rng *rand.Rand) []VertexID{
		"dense": func(*rand.Rand) []VertexID {
			ids := make([]VertexID, n)
			for i := range ids {
				ids[i] = VertexID(i - 40)
			}
			return ids
		},
		"scattered": func(rng *rand.Rand) []VertexID {
			seen := map[VertexID]bool{}
			var ids []VertexID
			for len(ids) < n {
				id := VertexID(rng.Int63n(1<<42) - 1<<41)
				if !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			slices.Sort(ids)
			return ids
		},
	}
	orders := []string{"ascending", "descending", "shuffled", "replaced", "ensure"}
	for spread, gen := range spreads {
		for _, order := range orders {
			t.Run(spread+"/"+order, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(spread) + len(order))))
				ids := gen(rng)
				adds := slices.Clone(ids)
				switch order {
				case "descending":
					slices.Reverse(adds)
				case "shuffled", "replaced", "ensure":
					rng.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
				}
				g := NewGraph()
				for _, id := range adds {
					if order == "ensure" {
						g.EnsureVertex(id, func() Value { return NewLong(int64(id)) })
						if g.EnsureVertex(id, func() Value { return NewLong(-1) }).Value().(*LongValue).Get() != int64(id) {
							t.Fatalf("EnsureVertex(%d) replaced an existing vertex", id)
						}
					} else {
						g.AddVertex(id, NewLong(int64(id)))
					}
				}
				want := map[VertexID]int64{}
				for i, id := range ids {
					want[id] = int64(id)
					if err := g.AddEdge(id, ids[(i*7+3)%len(ids)], NewDouble(float64(i))); err != nil {
						t.Fatal(err)
					}
				}
				if order == "replaced" {
					for _, id := range adds[:n/3] {
						g.AddVertex(id, NewLong(int64(id)*3))
						want[id] = int64(id) * 3
					}
				}
				for _, id := range ids[:n/4] {
					g.Vertex(id).VoteToHalt()
				}
				if g.unsorted != (order != "ascending") {
					t.Fatalf("unsorted = %v after %s adds", g.unsorted, order)
				}
				before := slices.Clone(g.vs)

				if got := g.VertexIDs(); !slices.Equal(got, ids) {
					t.Fatalf("VertexIDs out of order or incomplete")
				}
				var walked []VertexID
				g.Each(func(v *Vertex) { walked = append(walked, v.ID()) })
				if !slices.Equal(walked, ids) {
					t.Fatalf("Each visited %d vertices out of ID order", len(walked))
				}
				if g.NumVertices() != int64(len(want)) {
					t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), len(want))
				}
				c := g.Clone()
				if !slices.Equal(c.VertexIDs(), ids) || c.unsorted {
					t.Fatal("clone is not in ascending ID order")
				}
				for k, id := range ids {
					gv, cv := g.Vertex(id), c.Vertex(id)
					if got := gv.Value().(*LongValue).Get(); got != want[id] {
						t.Fatalf("vertex %d value %d, want %d", id, got, want[id])
					}
					if cv != c.vs[k] || cv == gv || cv.Value() == gv.Value() || !ValuesEqual(cv.Value(), gv.Value()) {
						t.Fatalf("vertex %d: clone is not a deep copy at position %d", id, k)
					}
					if cv.Halted() != gv.Halted() || cv.Halted() != (k < n/4) {
						t.Fatalf("vertex %d: halted %v, base %v", id, cv.Halted(), gv.Halted())
					}
					if !slices.EqualFunc(cv.Edges(), gv.Edges(), func(a, b Edge) bool {
						return a.Target == b.Target && ValuesEqual(a.Value, b.Value)
					}) {
						t.Fatalf("vertex %d: clone edges %v, base %v", id, cv.Edges(), gv.Edges())
					}
				}
				if c.ValuesDigest() != g.ValuesDigest() {
					t.Fatal("clone has a different values digest")
				}
				if !slices.Equal(g.vs, before) {
					t.Fatal("reading the graph reordered it")
				}
			})
		}
	}
}

// TestGraphConcurrentReadsOfUnsortedGraph: ordered walks of a graph
// built out of ID order sort a copy, so two goroutines may clone and
// list one graph at once (run under -race).
func TestGraphConcurrentReadsOfUnsortedGraph(t *testing.T) {
	g := NewGraph()
	for _, id := range rand.New(rand.NewSource(3)).Perm(2000) {
		g.AddVertex(VertexID(id), NewLong(int64(id)))
	}
	want := g.ValuesDigest()
	errs := make(chan string, 2)
	for range 2 {
		go func() {
			for range 5 {
				ids := g.VertexIDs()
				if !slices.IsSorted(ids) || len(ids) != 2000 {
					errs <- "VertexIDs out of order"
					return
				}
				if g.Clone().ValuesDigest() != want {
					errs <- "clone digest differs"
					return
				}
			}
			errs <- ""
		}()
	}
	for range 2 {
		if e := <-errs; e != "" {
			t.Fatal(e)
		}
	}
}
