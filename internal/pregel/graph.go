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
// which partitions it across workers.
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
	vertices map[VertexID]*Vertex
	numEdges int64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{vertices: make(map[VertexID]*Vertex)}
}

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
	r := rankIDs(ids, src, dst)
	n := len(r.sorted)
	// off[k+1] counts vertex k's edges; after the prefix sums off[k] is
	// where they start, and placing them advances it to where they end.
	off := make([]int, n+1)
	for _, s := range src {
		off[r.rank(s)+1]++
	}
	for k := 1; k <= n; k++ {
		off[k] += off[k-1]
	}
	es := make([]Edge, len(src))
	for i, s := range src {
		k := r.rank(s)
		es[off[k]].Target = dst[i]
		if vals != nil {
			es[off[k]].Value = vals[i]
		}
		off[k]++
	}
	g := &Graph{vertices: make(map[VertexID]*Vertex, n), numEdges: int64(len(src))}
	vs := make([]Vertex, n)
	lo := 0
	for k, id := range r.sorted {
		v := &vs[k]
		v.id = id
		if hi := off[k]; lo < hi {
			v.edges = es[lo:hi:hi]
			lo = hi
		}
		g.vertices[id] = v
	}
	return g
}

// idRanks maps every vertex ID of a bulk build to its position in
// ascending ID order: through a dense table over [min, max] when that
// range is under 4× the number of IDs given (the engine's idSpan rule),
// through a map otherwise.
type idRanks struct {
	sorted []VertexID
	base   VertexID
	dense  []int32
	sparse map[VertexID]int32
}

func rankIDs(cols ...[]VertexID) *idRanks {
	r := &idRanks{}
	total := 0
	lo, hi := VertexID(math.MaxInt64), VertexID(math.MinInt64)
	for _, c := range cols {
		total += len(c)
		for _, id := range c {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	if total == 0 {
		return r
	}
	// The range is computed in uint64: max-min overflows int64 when the
	// IDs straddle zero widely.
	if span := uint64(hi) - uint64(lo); span < 4*uint64(total) {
		r.base, r.dense = lo, make([]int32, span+1)
		for _, c := range cols {
			for _, id := range c {
				r.dense[uint64(id-lo)] = 1
			}
		}
		for i, mark := range r.dense {
			if mark != 0 {
				r.dense[i] = int32(len(r.sorted))
				r.sorted = append(r.sorted, lo+VertexID(i))
			}
		}
		return r
	}
	all := make([]VertexID, 0, total)
	for _, c := range cols {
		all = append(all, c...)
	}
	slices.Sort(all)
	r.sorted = slices.Compact(all)
	r.sparse = make(map[VertexID]int32, len(r.sorted))
	for i, id := range r.sorted {
		r.sparse[id] = int32(i)
	}
	return r
}

func (r *idRanks) rank(id VertexID) int32 {
	if r.dense != nil {
		return r.dense[uint64(id-r.base)]
	}
	return r.sparse[id]
}

// AddVertex inserts a vertex with the given value, replacing any
// existing vertex with the same ID (and its edges).
func (g *Graph) AddVertex(id VertexID, value Value) *Vertex {
	if old, ok := g.vertices[id]; ok {
		g.numEdges -= int64(len(old.edges))
	}
	v := &Vertex{id: id, value: value}
	g.vertices[id] = v
	return v
}

// EnsureVertex returns the vertex with the given ID, creating it with
// value defaultValue() if absent.
func (g *Graph) EnsureVertex(id VertexID, defaultValue func() Value) *Vertex {
	if v, ok := g.vertices[id]; ok {
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
	return g.vertices[id]
}

// AddEdge adds a directed edge. Both endpoints must already exist;
// use EnsureVertex when loading edge lists.
func (g *Graph) AddEdge(from, to VertexID, value Value) error {
	v, ok := g.vertices[from]
	if !ok {
		return fmt.Errorf("pregel: AddEdge: no vertex %d", from)
	}
	if _, ok := g.vertices[to]; !ok {
		return fmt.Errorf("pregel: AddEdge: no vertex %d", to)
	}
	v.AddEdge(Edge{Target: to, Value: value})
	g.numEdges++
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
func (g *Graph) NumVertices() int64 { return int64(len(g.vertices)) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int64 {
	// Recount lazily: edges may have been added through Vertex.AddEdge
	// by callers holding a *Vertex (detached vertices do not update
	// graph counters).
	var n int64
	for _, v := range g.vertices {
		n += int64(len(v.edges))
	}
	g.numEdges = n
	return n
}

// VertexIDs returns all IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	ids := make([]VertexID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Each calls fn for every vertex in ascending ID order.
func (g *Graph) Each(fn func(*Vertex)) {
	for _, id := range g.VertexIDs() {
		fn(g.vertices[id])
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
	type entry struct {
		id VertexID
		v  *Vertex
	}
	all := make([]entry, 0, len(g.vertices))
	m := 0
	for id, v := range g.vertices {
		all = append(all, entry{id, v})
		m += len(v.edges)
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
	c := &Graph{vertices: make(map[VertexID]*Vertex, len(all)), numEdges: int64(m)}
	var vs []Vertex
	var es []Edge
	left := m // edges not yet copied, so a small graph gets small slabs
	for k, x := range all {
		if len(vs) == cap(vs) {
			vs = make([]Vertex, 0, min(cloneChunk, len(all)-k))
		}
		if n := len(x.v.edges); len(es)+n > cap(es) {
			es = make([]Edge, 0, max(n, min(cloneChunk, left)))
		}
		left -= len(x.v.edges)
		lo := len(es)
		for _, e := range x.v.edges {
			es = append(es, Edge{Target: e.Target, Value: CloneValue(e.Value)})
		}
		vs = append(vs, Vertex{id: x.id, value: CloneValue(x.v.value), halted: x.v.halted})
		v := &vs[len(vs)-1]
		if hi := len(es); lo < hi {
			v.edges = es[lo:hi:hi]
		}
		c.vertices[x.id] = v
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
	for _, id := range g.VertexIDs() {
		e.Reset()
		e.PutVarint(int64(id))
		EncodeTyped(e, g.vertices[id].value)
		h.Write(e.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SortAllEdges orders every adjacency list by target ID so that runs
// are deterministic regardless of construction order.
func (g *Graph) SortAllEdges() {
	for _, v := range g.vertices {
		v.SortEdges()
	}
}
