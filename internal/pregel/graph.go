package pregel

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
)

// Graph is an input graph under construction. It is not safe for
// concurrent mutation: build it on one goroutine, either vertex by
// vertex or in bulk with NewGraphFromEdges, then hand it to a Job,
// which partitions it across workers. It holds its vertices in one
// []*Vertex, in ascending ID order unless AddVertex was called out of
// it, and one idTable from each ID to its position there. Ordered walks
// of a graph built out of order sort a copy: reading never writes.
//
// A graph built in bulk (NewGraphFromEdges) holds its vertices in one
// []Vertex slab and its edges in one []Edge slab, both in ascending ID
// order, so a job's edge walk over it reads memory in order; Clone
// copies into the same layout in smaller slabs. Each vertex's edges are
// a full slice expression es[lo:hi:hi] of an edge slab: appending to
// one vertex reallocates that vertex's edges alone and never writes
// into its neighbour's. A slab is a single allocation, so one live
// vertex keeps its whole slab alive.
type Graph struct {
	vs       []*Vertex
	index    idTable // ID → position in vs
	unsorted bool    // vs is out of ascending ID order
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// NewGraphFromEdges builds the graph whose vertices are ids ∪ src ∪ dst,
// each with a nil value, and whose edges are src[i] → dst[i] with value
// vals[i]. vals may be nil for an unweighted graph; the graph keeps the
// values it is given. The columns must be of equal length. One counting
// sort groups the edges by source in column order, so every vertex's
// edges are in the order EnsureVertex and Vertex.AddEdge calls over the
// columns would leave them. See Graph for the slab layout.
func NewGraphFromEdges(ids, src, dst []VertexID, vals []Value) *Graph {
	if len(src) != len(dst) || (vals != nil && len(vals) != len(src)) {
		panic("pregel: NewGraphFromEdges: columns differ in length")
	}
	ranks, sorted := rankIDs(ids, src, dst)
	n := len(sorted)
	// off[k+1] counts vertex k's edges; after the prefix sums off[k] is
	// where they start, and placing them advances it to where they end.
	off := make([]int, n+1)
	for _, s := range src {
		k, _ := ranks.lookup(s)
		off[k+1]++
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	es := make([]Edge, len(src))
	for i, s := range src {
		k, _ := ranks.lookup(s)
		es[off[k]].Target = dst[i]
		if vals != nil {
			es[off[k]].Value = vals[i]
		}
		off[k]++
	}
	g := &Graph{vs: make([]*Vertex, n), index: *ranks}
	vs := make([]Vertex, n)
	lo := 0
	for k, id := range sorted {
		v := &vs[k]
		v.id = id
		if hi := off[k]; lo < hi {
			v.edges = es[lo:hi:hi]
			lo = hi
		}
		g.vs[k] = v
	}
	return g
}

// rankIDs returns every distinct ID of the columns in ascending order,
// and a table mapping each to its position there.
func rankIDs(cols ...[]VertexID) (*idTable, []VertexID) {
	total := 0
	lo, hi := VertexID(math.MaxInt64), VertexID(math.MinInt64)
	for _, c := range cols {
		total += len(c)
		for _, id := range c {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	t := newIDTable(lo, hi, total)
	for _, c := range cols {
		for _, id := range c {
			t.set(id, 0)
		}
	}
	sorted := t.ids()
	for k, id := range sorted {
		t.set(id, k)
	}
	return t, sorted
}

// AddVertex inserts a vertex with the given value, replacing any
// existing vertex with the same ID (and its edges).
func (g *Graph) AddVertex(id VertexID, value Value) *Vertex {
	v := &Vertex{id: id, value: value}
	if k, ok := g.index.lookup(id); ok {
		g.vs[k] = v
		return v
	}
	g.unsorted = g.unsorted || len(g.vs) > 0 && id < g.vs[len(g.vs)-1].id
	g.index.set(id, len(g.vs))
	g.vs = append(g.vs, v)
	return v
}

// EnsureVertex returns the vertex with the given ID, creating it with
// value defaultValue() if absent.
func (g *Graph) EnsureVertex(id VertexID, defaultValue func() Value) *Vertex {
	if v := g.Vertex(id); v != nil {
		return v
	}
	var val Value
	if defaultValue != nil {
		val = defaultValue()
	}
	return g.AddVertex(id, val)
}

// Vertex returns the vertex with the given ID, or nil.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if k, ok := g.index.lookup(id); ok {
		return g.vs[k]
	}
	return nil
}

// AddEdge adds a directed edge. Both endpoints must already exist;
// use EnsureVertex when loading edge lists.
func (g *Graph) AddEdge(from, to VertexID, value Value) error {
	v := g.Vertex(from)
	if v == nil {
		return fmt.Errorf("pregel: AddEdge: no vertex %d", from)
	}
	if g.Vertex(to) == nil {
		return fmt.Errorf("pregel: AddEdge: no vertex %d", to)
	}
	v.AddEdge(Edge{Target: to, Value: value})
	return nil
}

// AddUndirectedEdge adds symmetric directed edges in both directions,
// cloning the value for the reverse edge.
func (g *Graph) AddUndirectedEdge(a, b VertexID, value Value) error {
	if err := g.AddEdge(a, b, value); err != nil {
		return err
	}
	return g.AddEdge(b, a, CloneValue(value))
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int64 { return int64(len(g.vs)) }

// NumEdges returns the directed edge count.
// It counts on every call, so edges added through Vertex.AddEdge are
// included.
func (g *Graph) NumEdges() int64 {
	var n int64
	for _, v := range g.vs {
		n += int64(len(v.edges))
	}
	return n
}

// ordered returns the vertices in ascending ID order and the table from
// each ID to its position there: g's own, or for a graph built out of
// ID order a sorted copy and a table of its own.
func (g *Graph) ordered() ([]*Vertex, *idTable) {
	if !g.unsorted {
		return g.vs, &g.index
	}
	vs := slices.SortedFunc(slices.Values(g.vs), func(a, b *Vertex) int { return cmp.Compare(a.id, b.id) })
	t := newIDTable(vs[0].id, vs[len(vs)-1].id, len(vs))
	for k, v := range vs {
		t.set(v.id, k)
	}
	return vs, t
}

// VertexIDs returns all IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	ids := make([]VertexID, 0, len(g.vs))
	g.Each(func(v *Vertex) { ids = append(ids, v.id) })
	return ids
}

// Each calls fn for every vertex in ascending ID order.
func (g *Graph) Each(fn func(*Vertex)) {
	vs, _ := g.ordered()
	for _, v := range vs {
		fn(v)
	}
}

// cloneChunk caps the vertices, and the edges, that Clone puts in one
// slab. A graph is cloned for every run and dropped after it. A
// whole-graph slab leaves a hole that smaller objects move into, so
// the next clone takes fresh pages and peak RSS grows.
const cloneChunk = 4096

// Clone deep-copies the graph, so one generated dataset can feed many
// runs (algorithms mutate values and, for matching, topology). The copy
// has the layout of a bulk-built graph (see Graph) in slabs of at most
// cloneChunk vertices and cloneChunk edges (or one vertex's edges),
// filled in ascending ID order with CloneValue of every vertex and edge
// value.
func (g *Graph) Clone() *Graph {
	all, _ := g.ordered()
	m := 0
	for _, v := range all {
		m += len(v.edges)
	}
	c := &Graph{vs: make([]*Vertex, len(all))}
	if len(all) > 0 {
		c.index = *newIDTable(all[0].id, all[len(all)-1].id, len(all))
	}
	var vs []Vertex
	var es []Edge
	left := m // edges not yet copied, so a small graph gets small slabs
	for k, x := range all {
		if len(vs) == cap(vs) {
			vs = make([]Vertex, 0, min(cloneChunk, len(all)-k))
		}
		if n := len(x.edges); len(es)+n > cap(es) {
			es = make([]Edge, 0, max(n, min(cloneChunk, left)))
		}
		left -= len(x.edges)
		lo := len(es)
		for _, e := range x.edges {
			es = append(es, Edge{Target: e.Target, Value: CloneValue(e.Value)})
		}
		vs = append(vs, Vertex{id: x.id, value: CloneValue(x.value), halted: x.halted})
		v := &vs[len(vs)-1]
		if hi := len(es); lo < hi {
			v.edges = es[lo:hi:hi]
		}
		c.vs[k] = v
		c.index.set(v.id, k)
	}
	return c
}

// ValuesDigest returns a hex SHA-256 over the graph's (vertex ID,
// encoded value) pairs in ascending ID order. Two runs that leave
// every vertex with the same final value — regardless of how many
// supersteps, which compute mode, or which partition layout got them
// there — produce the same digest, which is what anchors
// vertex-vs-subgraph equivalence checks.
func (g *Graph) ValuesDigest() string {
	h := sha256.New()
	e := NewEncoder()
	vs, _ := g.ordered()
	for _, v := range vs {
		e.Reset()
		e.PutVarint(int64(v.id))
		EncodeTyped(e, v.value)
		h.Write(e.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SortAllEdges orders every adjacency list by target ID so that runs
// are deterministic regardless of construction order.
func (g *Graph) SortAllEdges() {
	for _, v := range g.vs {
		v.SortEdges()
	}
}
