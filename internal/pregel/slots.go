package pregel

import "math/bits"

// bitmap is a bit set over a partition's slots in two levels: w has one
// word per 64 slots, and sum one bit per word that may be non-zero (set
// keeps it, clear leaves it stale). Every walk starts from sum and drops
// the bits of words it finds zero, so a walk costs O(slots/4096 + live
// words), whatever the partition's size.
type bitmap struct {
	w, sum []uint64
}

func (b bitmap) set(i int) {
	b.w[i>>6] |= 1 << (uint(i) & 63)
	b.sum[i>>12] |= 1 << (uint(i>>6) & 63)
}
func (b bitmap) clear(i int)     { b.w[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitmap) test(i int) bool { return b.w[i>>6]&(1<<(uint(i)&63)) != 0 }

// words calls fn with the index and value of every non-zero word, in
// ascending order. fn may change that word; a word that is zero once fn
// returns leaves the summary.
func (b bitmap) words(fn func(wi int, word uint64)) {
	for si, s := range b.sum {
		for ; s != 0; s &= s - 1 {
			wi := si<<6 + bits.TrailingZeros64(s)
			if word := b.w[wi]; word != 0 {
				fn(wi, word)
			}
			b.tidy(wi)
		}
	}
}

// tidy drops word wi's summary bit if the word is zero.
func (b bitmap) tidy(wi int) {
	if b.w[wi] == 0 {
		b.sum[wi>>6] &^= 1 << (uint(wi) & 63)
	}
}

// count returns the number of set bits.
func (b bitmap) count() int {
	n := 0
	b.words(func(_ int, word uint64) { n += bits.OnesCount64(word) })
	return n
}

// any reports whether at least one bit is set.
func (b bitmap) any() bool {
	found := false
	b.words(func(int, uint64) { found = true })
	return found
}

// forEach calls fn with the index of every set bit, in ascending order.
func (b bitmap) forEach(fn func(i int)) {
	b.words(func(wi int, word uint64) {
		for ; word != 0; word &= word - 1 {
			fn(wi<<6 + bits.TrailingZeros64(word))
		}
	})
}

// reset clears every bit.
func (b bitmap) reset() { b.words(func(wi int, _ uint64) { b.w[wi] = 0 }) }

// grown returns b extended (never shrunk) to cover nbits bits.
func (b bitmap) grown(nbits int) bitmap {
	n := (nbits + 63) >> 6
	return bitmap{grownTo(b.w, n), grownTo(b.sum, (n+63)>>6)}
}

// truncated returns b cut to its first nbits bits.
func (b bitmap) truncated(nbits int) bitmap {
	n := (nbits + 63) >> 6
	b.w, b.sum = b.w[:n], b.sum[:(n+63)>>6]
	if r := nbits & 63; r != 0 {
		b.w[n-1] &= 1<<r - 1
	}
	if r := n & 63; r != 0 {
		b.sum[len(b.sum)-1] &= 1<<r - 1
	}
	return b
}

// grownTo returns s extended (never shrunk) to n elements.
func grownTo[S ~[]T, T any](s S, n int) S {
	if n > len(s) {
		return append(s, make(S, n-len(s))...)
	}
	return s
}

// partition is the set of vertices owned by one worker: a dense slot
// array in ascending ID order plus the id → slot index. Inbox shards are
// addressed by the same slots, so delivery and the superstep scan never
// hash a vertex ID.
type partition struct {
	idx int
	// slots holds the vertices in ascending ID order, the order they
	// were placed in at load or checkpoint install. A removed vertex
	// leaves a nil tombstone so the slots behind it — and the inbox
	// cells addressed by them — stay put until rebuild; the live slots
	// stay in ascending ID order throughout.
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
	// slotGen counts slot changes (add, remove, rebuild): its sum over
	// the engine's partitions moves whenever any vertex's slot does.
	slotGen uint64
	// dst is the edge slot column: for each live vertex in slot order,
	// the destination of each of its edges as slot<<engine.slotShift |
	// partition, or noSlot; a vertex's run starts at Vertex.dst. It is
	// current while dstMoves is that sum and no vertex has changed its
	// targets since (dstStale).
	dst      []uint32
	dstMoves uint64
	dstStale bool
	// subs caches the partition's weakly-connected components for
	// subgraph mode (nil until first discovery). subsDirty flags that
	// membership may have changed — topology mutation, vertex
	// removal, recovery — so the owning worker rediscovers
	// before its next subgraph scan.
	subs      []*Subgraph
	subsDirty bool
}

// newPartition returns an empty partition whose index is built for the
// engine's load-time vertex IDs.
func (en *engine) newPartition(idx int) *partition {
	return &partition{idx: idx, index: *newIDTable(en.idLo, en.idHi, en.idCount), dstStale: true}
}

// add appends v as the partition's last slot and takes ownership of it.
// Callers add in ascending ID order.
func (p *partition) add(v *Vertex) {
	s := len(p.slots)
	p.slots = append(p.slots, v)
	p.index.set(v.id, s)
	p.awake = p.awake.grown(s + 1)
	if !v.halted {
		p.awake.set(s)
	}
	p.edges += int64(len(v.edges))
	p.subsDirty = true
	p.slotGen++
	v.owner = p
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
	p.slotGen++
	return v
}

// rebuild squeezes the tombstones out of the slot array, in place; the
// live vertices keep their ascending ID order. It returns the old-slot →
// new-slot permutation (-1 for tombstones) for whoever holds
// slot-addressed state — the pending inbox shard — to follow.
func (p *partition) rebuild() []int32 {
	perm := make([]int32, len(p.slots))
	p.awake.reset()
	live := p.slots[:0]
	for s, v := range p.slots {
		perm[s] = -1
		if v == nil {
			continue
		}
		n := len(live)
		perm[s] = int32(n)
		p.index.set(v.id, n)
		if !v.halted {
			p.awake.set(n)
		}
		live = append(live, v)
	}
	clear(p.slots[len(live):])
	p.awake = p.awake.truncated(len(live))
	p.slots = live
	p.removed = 0
	p.subsDirty = true
	p.slotGen++
	return perm
}

// targetsChanged records that v's edge targets changed: its subgraph
// may have, and its run of the edge slot column is stale, so v sends
// per edge until the owning worker next builds the column.
func (p *partition) targetsChanged(v *Vertex) {
	p.subsDirty, p.dstStale = true, true
	v.dst = -1
}

// columnCurrent reports whether p's edge slot column is current, and
// the sum of every partition's slotGen, which moves with any slot.
func (en *engine) columnCurrent(p *partition) (bool, uint64) {
	var moves uint64
	for _, q := range en.parts {
		moves += q.slotGen
	}
	return !p.dstStale && p.dstMoves == moves, moves
}

// noSlot is the column entry of an edge whose target has no slot, or
// whose slot does not fit the encoding.
const noSlot = ^uint32(0)

// resolveEdges rebuilds p's edge slot column unless it is current:
// every live vertex's edge targets resolved, in slot order, to their
// destination partition and slot, at 4 B per edge. Only p's owning
// worker may call it, during the compute phase, when every partition's
// slots are read-only.
func (en *engine) resolveEdges(p *partition) {
	current, moves := en.columnCurrent(p)
	if current {
		return
	}
	p.dstMoves, p.dstStale = moves, false
	if n := p.edges + int64(p.edgeDelta); int64(cap(p.dst)) != n {
		p.dst = make([]uint32, n)
	}
	p.dst = p.dst[:cap(p.dst)]
	off := 0
	for _, v := range p.slots {
		if v == nil {
			continue
		}
		v.dst = int32(off)
		for i := range v.edges {
			to := v.edges[i].Target
			q := en.partitionFor(to)
			p.dst[off] = noSlot
			if slot, ok := en.parts[q].index.lookup(to); ok && uint64(slot)<<en.slotShift < uint64(noSlot>>1) {
				p.dst[off] = uint32(slot)<<en.slotShift | uint32(q)
			}
			off++
		}
	}
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
	p.awake.reset()
	var n int64
	for s, v := range p.slots {
		if v != nil && !v.halted {
			p.awake.set(s)
			n++
		}
	}
	return n
}
