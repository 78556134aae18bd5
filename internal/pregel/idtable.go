package pregel

import "slices"

// idTable maps vertex IDs to small non-negative ints: a partition's
// slots, the locality partitioner's placements, a bulk build's ranks.
// Lookups sit on the send and delivery hot paths, so they must not
// allocate: the table is a dense int32 slice over an ID range, with a
// sparse map catching IDs outside it (vertices added after load, or a
// range too scattered to be dense). Dense cells hold value+1, so a
// zeroed table is empty and needs no initialization pass.
type idTable struct {
	base   VertexID
	dense  []int32
	sparse map[VertexID]int32
	n      int // live entries across both representations
}

// newIDTable returns an empty table for about n IDs in [lo, hi]. It is
// dense over [lo, hi] only when that range is under 4n, i.e. at least a
// quarter occupied; otherwise every entry goes to the map. The range is
// computed in uint64: hi-lo overflows int64 when the IDs straddle zero
// widely.
func newIDTable(lo, hi VertexID, n int) *idTable {
	if span := uint64(hi) - uint64(lo); span < 4*uint64(n) {
		return &idTable{base: lo, dense: make([]int32, span+1)}
	}
	return &idTable{}
}

// lookup returns the value stored for id: one bounds check against the
// dense slice, and a map probe only for IDs outside it.
func (t *idTable) lookup(id VertexID) (int, bool) {
	if off := uint64(id - t.base); off < uint64(len(t.dense)) {
		v := t.dense[off]
		return int(v) - 1, v != 0
	}
	v, ok := t.sparse[id]
	return int(v), ok
}

// set stores v for id, replacing any earlier value.
func (t *idTable) set(id VertexID, v int) {
	if off := uint64(id - t.base); off < uint64(len(t.dense)) {
		if t.dense[off] == 0 {
			t.n++
		}
		t.dense[off] = int32(v) + 1
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[VertexID]int32)
	}
	if _, ok := t.sparse[id]; !ok {
		t.n++
	}
	t.sparse[id] = int32(v)
}

// delete removes id's entry, if any.
func (t *idTable) delete(id VertexID) {
	if off := uint64(id - t.base); off < uint64(len(t.dense)) {
		if t.dense[off] != 0 {
			t.dense[off] = 0
			t.n--
		}
		return
	}
	if _, ok := t.sparse[id]; ok {
		delete(t.sparse, id)
		t.n--
	}
}

// len returns the number of entries; a nil table has none.
func (t *idTable) len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// ids returns every ID in the table in ascending order.
func (t *idTable) ids() []VertexID {
	ids := make([]VertexID, 0, t.n)
	for off, v := range t.dense {
		if v != 0 {
			ids = append(ids, t.base+VertexID(off))
		}
	}
	if len(t.sparse) > 0 {
		for id := range t.sparse {
			ids = append(ids, id)
		}
		slices.Sort(ids)
	}
	return ids
}

// pairs returns every entry in ascending ID order, the form checkpoints
// encode.
func (t *idTable) pairs() ([]VertexID, []int) {
	ids := t.ids()
	vals := make([]int, len(ids))
	for i, id := range ids {
		vals[i], _ = t.lookup(id)
	}
	return ids, vals
}
