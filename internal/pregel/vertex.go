package pregel

import (
	"cmp"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. Giraph's common configuration uses
// LongWritable IDs; we fix IDs to int64 for the same reason.
type VertexID int64

func (id VertexID) String() string { return fmt.Sprintf("%d", id) }

// Edge is an outgoing edge of a vertex. Value may be nil for
// unweighted graphs (Giraph's NullWritable edge value).
type Edge struct {
	Target VertexID
	Value  Value
}

// Vertex is the unit of computation. During a superstep a vertex is
// owned exclusively by the worker goroutine holding its partition, so
// its methods need no synchronization. Only the engine constructs
// vertices.
type Vertex struct {
	id     VertexID
	value  Value
	edges  []Edge
	halted bool
	// dst is where the vertex's run of its owner's edge slot column
	// starts, or -1 when its targets changed since the column was built.
	dst int32

	// owner tracks topology mutations so the engine can cheaply keep
	// the global edge count current. It is nil for detached vertices
	// (graph building, replay).
	owner *partition
}

// NewDetachedVertex constructs a vertex that is not attached to a
// running job, for graph construction and context replay.
func NewDetachedVertex(id VertexID, value Value) *Vertex {
	return &Vertex{id: id, value: value}
}

// ID returns the vertex identifier.
func (v *Vertex) ID() VertexID { return v.id }

// Value returns the current vertex value. Callers that retain it
// across supersteps must Clone it.
func (v *Vertex) Value() Value { return v.value }

// SetValue replaces the vertex value.
func (v *Vertex) SetValue(val Value) { v.value = val }

// VoteToHalt declares the vertex inactive. It is reactivated if it
// receives a message in a later superstep.
func (v *Vertex) VoteToHalt() { v.halted = true }

// Halted reports whether the vertex has voted to halt.
func (v *Vertex) Halted() bool { return v.halted }

// NumEdges returns the out-degree.
func (v *Vertex) NumEdges() int { return len(v.edges) }

// Edges returns the outgoing edges. The slice is owned by the vertex;
// callers must not append to, reorder or retarget it (edge values may be
// changed in place).
func (v *Vertex) Edges() []Edge { return v.edges }

// EdgeValue returns the value of the edge to target, if present.
func (v *Vertex) EdgeValue(target VertexID) (Value, bool) {
	for i := range v.edges {
		if v.edges[i].Target == target {
			return v.edges[i].Value, true
		}
	}
	return nil, false
}

// HasEdge reports whether an edge to target exists.
func (v *Vertex) HasEdge(target VertexID) bool {
	_, ok := v.EdgeValue(target)
	return ok
}

// AddEdge appends an outgoing edge. Duplicate targets are permitted,
// as in Giraph's default multigraph edge store.
func (v *Vertex) AddEdge(e Edge) {
	v.edges = append(v.edges, e)
	if v.owner != nil {
		v.owner.edgeDelta++
		v.owner.targetsChanged(v)
	}
}

// RemoveEdges removes all edges to target and returns how many were
// removed.
func (v *Vertex) RemoveEdges(target VertexID) int {
	kept := v.edges[:0]
	removed := 0
	for _, e := range v.edges {
		if e.Target == target {
			removed++
		} else {
			kept = append(kept, e)
		}
	}
	v.edges = kept
	if v.owner != nil {
		v.owner.edgeDelta -= removed
		if removed > 0 {
			v.owner.targetsChanged(v)
		}
	}
	return removed
}

// RemoveAllEdges drops every outgoing edge.
func (v *Vertex) RemoveAllEdges() {
	if v.owner != nil {
		v.owner.edgeDelta -= len(v.edges)
		if len(v.edges) > 0 {
			v.owner.targetsChanged(v)
		}
	}
	v.edges = v.edges[:0]
}

// SetEdgeValue sets the value of the first edge to target, reporting
// whether such an edge exists.
func (v *Vertex) SetEdgeValue(target VertexID, val Value) bool {
	for i := range v.edges {
		if v.edges[i].Target == target {
			v.edges[i].Value = val
			return true
		}
	}
	return false
}

// SortEdges orders edges by target ID (stable for equal targets).
// Generators call it so that runs are deterministic regardless of
// construction order.
func (v *Vertex) SortEdges() {
	slices.SortStableFunc(v.edges, func(a, b Edge) int {
		return cmp.Compare(a.Target, b.Target)
	})
	if v.owner != nil {
		v.owner.targetsChanged(v)
	}
}

func (v *Vertex) encode(e *Encoder) {
	e.PutVarint(int64(v.id))
	EncodeTyped(e, v.value)
	e.PutBool(v.halted)
	e.PutUvarint(uint64(len(v.edges)))
	for _, ed := range v.edges {
		e.PutVarint(int64(ed.Target))
		EncodeTyped(e, ed.Value)
	}
}

func decodeVertex(d *Decoder) (*Vertex, error) {
	v := &Vertex{}
	v.id = VertexID(d.Varint())
	val, err := DecodeTyped(d)
	if err != nil {
		return nil, err
	}
	v.value = val
	v.halted = d.Bool()
	n := d.Count(2)
	v.edges = make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		target := VertexID(d.Varint())
		ev, err := DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		v.edges = append(v.edges, Edge{Target: target, Value: ev})
	}
	return v, d.Err()
}
