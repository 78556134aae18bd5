package pregel

import (
	"math/bits"
	"sort"
)

// bitmap is a bit set over a partition's slots, one word per 64 slots.
// The superstep scan walks the set bits of awake|pending word by word,
// so a superstep costs O(slots/64 + frontier) instead of a probe per
// vertex.
type bitmap []uint64

func (b bitmap) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitmap) clear(i int)     { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitmap) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// count returns the number of set bits.
func (b bitmap) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// any reports whether at least one bit is set.
func (b bitmap) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// forEach calls fn with the index of every set bit, in ascending order.
func (b bitmap) forEach(fn func(i int)) {
	for wi, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(wi<<6 + bits.TrailingZeros64(word))
		}
	}
}

// grown returns b extended (never shrunk) to cover nbits bits.
func (b bitmap) grown(nbits int) bitmap {
	if words := (nbits + 63) >> 6; words > len(b) {
		return append(b, make([]uint64, words-len(b))...)
	}
	return b
}

// partition is the set of vertices owned by one worker: a dense slot
// array in iteration order plus the id → slot index. Inbox shards are
// addressed by the same slots, so delivery and the superstep scan never
// hash a vertex ID.
type partition struct {
	idx int
	// slots holds the vertices in iteration order: load order (ascending
	// ID), then arrival order for vertices added later. A
	// removed vertex leaves a nil tombstone so the slots behind it — and
	// the inbox cells addressed by them — stay put until rebuild.
	slots []*Vertex
	// index maps each live vertex's ID to its slot; its length is the
	// number of non-nil slots. mergeLane reads it once per delivered
	// lane entry.
	index   idTable
	removed int // tombstones in slots
	// awake has a bit per slot holding a non-halted vertex. The owning
	// worker updates it after each Compute; the coordinator keeps it
	// current through mutations and recovery.
	awake bitmap
	edges int64 // current out-edge count of the partition
	// edgeDelta accumulates Vertex.AddEdge/RemoveEdges deltas during a
	// superstep; only the owning worker writes it, and the coordinator
	// folds it into edges at the barrier.
	edgeDelta int
	// subs caches the partition's weakly-connected components for
	// subgraph mode (nil until first discovery). subsDirty flags that
	// membership may have changed — topology mutation, vertex
	// add/remove, recovery — so the owning worker rediscovers
	// before its next subgraph scan.
	subs      []*Subgraph
	subsDirty bool
}

// newPartition returns an empty partition whose index is built for the
// engine's load-time vertex IDs.
func (en *engine) newPartition(idx int) *partition {
	return &partition{idx: idx, index: *newIDTable(en.idLo, en.idHi, en.idCount)}
}

// vertex returns the live vertex with the given ID, or nil.
func (p *partition) vertex(id VertexID) *Vertex {
	if s, ok := p.index.lookup(id); ok {
		return p.slots[s]
	}
	return nil
}

// add appends v as the partition's last slot and takes ownership of it.
func (p *partition) add(v *Vertex) int {
	s := len(p.slots)
	p.slots = append(p.slots, v)
	p.index.set(v.id, s)
	p.awake = p.awake.grown(s + 1)
	if !v.halted {
		p.awake.set(s)
	}
	p.edges += int64(len(v.edges))
	p.subsDirty = true
	v.owner = p
	return s
}

// remove tombstones slot s and returns the vertex that occupied it.
func (p *partition) remove(s int) *Vertex {
	v := p.slots[s]
	p.slots[s] = nil
	p.index.delete(v.id)
	p.awake.clear(s)
	p.removed++
	p.edges -= int64(len(v.edges))
	p.subsDirty = true
	return v
}

// rebuild drops the tombstones and re-sorts the live vertices into
// ascending ID order, so iteration order after a compaction is a pure
// function of the partition's content rather than of its removal
// history. It returns the old-slot → new-slot permutation (-1 for
// tombstones) for whoever holds slot-addressed state — the pending
// inbox shard — to follow.
func (p *partition) rebuild() []int32 {
	perm := make([]int32, len(p.slots))
	live := make([]*Vertex, 0, p.index.len())
	for s, v := range p.slots {
		perm[s] = -1
		if v != nil {
			live = append(live, v)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	clear(p.awake)
	p.awake = p.awake[:(len(live)+63)>>6]
	for s, v := range live {
		old, _ := p.index.lookup(v.id)
		perm[old] = int32(s)
		p.index.set(v.id, s)
		if !v.halted {
			p.awake.set(s)
		}
	}
	p.slots = live
	p.removed = 0
	p.subsDirty = true
	return perm
}

// needsCompaction reports whether tombstones outnumber live slots.
func (p *partition) needsCompaction() bool {
	return p.removed > 0 && p.removed > len(p.slots)/2
}

// syncAwake recomputes awake from the vertices' halted flags — the ground
// truth after state the bitmap was not following (subgraph-wide halts
// are applied per component, recovery swaps whole partitions) — and
// returns the number of awake vertices.
func (p *partition) syncAwake() int64 {
	clear(p.awake)
	var n int64
	for s, v := range p.slots {
		if v != nil && !v.halted {
			p.awake.set(s)
			n++
		}
	}
	return n
}
