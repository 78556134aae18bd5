package pregel

import (
	"math/bits"
	"sync"
)

// msgEntry is one in-flight boxed message: every message without a
// combiner, and under one a message whose destination had no slot when
// it was sent, or lost it at the barrier.
type msgEntry struct {
	to  VertexID
	msg Value
}

// msgBatch is one pooled batch of entries, at most msgFlushBatch long.
type msgBatch struct {
	entries []msgEntry
}

// batchPool recycles msgBatch objects across supersteps so the
// steady-state message plane allocates nothing the GC has to mark,
// mirroring the pooled-batch design trace.Sink uses.
type batchPool struct {
	p sync.Pool
}

func (bp *batchPool) get() *msgBatch {
	if b, ok := bp.p.Get().(*msgBatch); ok {
		return b
	}
	return &msgBatch{entries: make([]msgEntry, 0, msgFlushBatch)}
}

func (bp *batchPool) put(b *msgBatch) {
	clear(b.entries) // so the pool does not retain Value pointers
	b.entries = b.entries[:0]
	bp.p.Put(b)
}

// cells is a run of message cells over one partition's slots: cell s
// belongs to the vertex in slot s, and pending has a bit for every
// non-empty cell. Exactly one column is used: m without a combiner, cs
// (unboxed bits) under a standard one, c under any other. A cs cell
// means something only while its pending bit is set.
type cells struct {
	m       [][]Value
	c       []Value
	cs      []uint64
	pending bitmap
}

// msgLane is one cell of the lane matrix: what one sender has sent
// toward one destination partition this superstep. Only the sending
// worker writes it during the compute phase; only the coordinator or
// the destination's owning worker reads it after the barrier.
//
// Under a combiner the lane's cells are a dense accumulator: a send to
// a vertex with a slot folds straight into its cell, in send order.
// Every other message is an entry in a pooled batch.
type msgLane struct {
	cells
	batches []*msgBatch
	// n counts the messages sent, pre-combining.
	n int64
}

// messageStore holds the messages sent during one superstep for
// delivery at the next. It is sharded by destination partition, and
// each shard is addressed by the destination partition's slots. Writes
// go to the lane matrix without synchronization: each worker writes its
// own row (single writer), and mergeLane folds each column into its
// shard at the barrier (single reader, ordered by the barrier). Reads
// during the next superstep are done exclusively by the shard's owning
// worker and need no locking either. The engine keeps two stores and
// swaps them at every barrier.
type messageStore struct {
	combiner Combiner
	// scalar is the combiner when it is one of the standard ones: cells
	// then hold unboxed bits, and boxes exist only at the edges
	// (takeCell, encode, entries).
	scalar scalarCombiner
	shards []msgShard
	// lanes is [sender][dest]. The engine's two stores share one
	// matrix and one pool: lanes hold anything only between a compute
	// phase and the merge at its barrier, and then for the next store.
	lanes [][]msgLane
	pool  *batchPool
}

// msgShard is the inbox of one partition. The superstep scan drains
// exactly the pending cells, so a drained shard is all-nil again and is
// reused as it stands.
type msgShard struct {
	cells
	// orphans is the set of IDs without a slot that mergeLane has
	// dropped mail for under a combiner; it is empty outside a merge.
	orphans map[VertexID]struct{}
	// n counts messages received (pre-combining), for stats.
	n int64
	// dropped counts the messages mergeLane discarded because their
	// destination has no slot.
	dropped int64
	// combined counts messages merged away by the combiner (at the
	// sender or the receiver), for the telemetry layer (n - combined
	// messages survive to delivery).
	combined int64
	// merging is the destination of the boxed message mergeLane is
	// delivering, for the report when a user combiner panics on it.
	merging VertexID
}

// newMessageStores returns an engine's two stores for n partitions,
// sharing one lane matrix and one pool.
func newMessageStores(n int, combiner Combiner) (*messageStore, *messageStore) {
	lanes, pool := make([][]msgLane, n), &batchPool{}
	for i := range lanes {
		lanes[i] = make([]msgLane, n)
	}
	store := func() *messageStore {
		s := &messageStore{combiner: combiner, lanes: lanes, pool: pool, shards: make([]msgShard, n)}
		s.scalar, _ = combiner.(scalarCombiner)
		for i := range s.shards {
			s.shards[i].orphans = make(map[VertexID]struct{})
		}
		return s
	}
	return store(), store()
}

// grow extends cells (and their pending bitmap) to cover n slots.
func (s *messageStore) grow(cl *cells, n int) {
	cl.pending = cl.pending.grown(n)
	switch {
	case s.scalar != 0:
		cl.cs = grownTo(cl.cs, n)
	case s.combiner != nil:
		cl.c = grownTo(cl.c, n)
	default:
		cl.m = grownTo(cl.m, n)
	}
}

// put folds bits into cell `slot` and reports whether the cell already
// held a message.
func (op scalarCombiner) put(cl *cells, slot int, bits uint64) bool {
	if cl.pending.test(slot) {
		cl.cs[slot] = op.fold(cl.cs[slot], bits)
		return true
	}
	cl.cs[slot] = bits
	cl.pending.set(slot)
	return false
}

// put adds one message to cell `slot`, combining if a combiner is
// installed, and reports whether the combiner merged it away. The cells
// must already cover the slot.
func (s *messageStore) put(cl *cells, slot int, to VertexID, msg Value) bool {
	switch {
	case s.scalar != 0:
		return s.scalar.put(cl, slot, s.scalar.bits(msg))
	case s.combiner != nil && cl.pending.test(slot):
		cl.c[slot] = s.combiner.Combine(to, cl.c[slot], msg)
		return true
	case s.combiner != nil:
		cl.c[slot] = msg
	default:
		cl.m[slot] = append(cl.m[slot], msg)
	}
	cl.pending.set(slot)
	return false
}

// drop discards a message whose destination has no slot. Under a
// combiner the messages to one ID count as one dropped message and the
// rest as combined, as if they had met first, so neither count depends
// on how many senders wrote to that ID.
func (s *messageStore) drop(sh *msgShard, to VertexID) {
	if s.combiner != nil {
		if _, seen := sh.orphans[to]; seen {
			sh.combined++
			return
		}
		sh.orphans[to] = struct{}{}
	}
	sh.dropped++
}

// deliverTo routes one message into part's shard: one index read, then
// a slot write. It reports false, and delivers nothing, when the
// destination has no slot. The caller must be the only goroutine
// touching the shard and must have called grow.
func (s *messageStore) deliverTo(part *partition, sh *msgShard, to VertexID, msg Value) bool {
	slot, ok := part.index.lookup(to)
	if ok && s.put(&sh.cells, slot, to, msg) {
		sh.combined++
	}
	return ok
}

// push appends one entry to a lane, starting a pooled batch when the
// last one holds `batch` entries.
func (s *messageStore) push(ln *msgLane, e msgEntry, batch int) {
	k := len(ln.batches) - 1
	if k < 0 || len(ln.batches[k].entries) >= batch {
		ln.batches = append(ln.batches, s.pool.get())
		k++
	}
	ln.batches[k].entries = append(ln.batches[k].entries, e)
}

// evict turns every sender's cell for the vertex in slot `slot` of
// partition p into an entry addressed to its ID, which the merge
// drops like any message to an ID without a slot. The barrier calls it
// on the coordinator when it removes that vertex.
func (s *messageStore) evict(p, slot int, id VertexID) {
	for sender := range s.lanes {
		ln := &s.lanes[sender][p]
		if slot>>6 < len(ln.pending.w) && ln.pending.test(slot) {
			s.push(ln, msgEntry{to: id, msg: s.takeCell(&ln.cells, slot)[0]}, msgFlushBatch)
		}
	}
}

// mergeLane folds part's column of the lane matrix into its shard and
// returns the batches to the pool. It must run after the superstep
// barrier, with exactly one goroutine touching the shard (the
// destination's owning worker). Senders are merged in worker order:
// first a sender's cells, then its entries in send order. So a
// combined message is folded in send order within each sender, then
// sender by sender, whatever the batch size. Mail to an ID without a
// slot is dropped and counted in the shard's dropped.
func (s *messageStore) mergeLane(part *partition) {
	sh := &s.shards[part.idx]
	s.grow(&sh.cells, len(part.slots))
	for sender := range s.lanes {
		ln := &s.lanes[sender][part.idx]
		if ln.n == 0 {
			continue
		}
		merged := ln.n
		ln.pending.words(func(wi int, word uint64) {
			ln.pending.w[wi] = 0
			for ; word != 0; word &= word - 1 {
				slot := wi<<6 + bits.TrailingZeros64(word)
				merged--
				if s.scalar != 0 {
					if s.scalar.put(&sh.cells, slot, ln.cs[slot]) {
						sh.combined++
					}
					continue
				}
				sh.merging = part.slots[slot].id
				if s.put(&sh.cells, slot, sh.merging, ln.c[slot]) {
					sh.combined++
				}
				ln.c[slot] = nil
			}
		})
		for _, b := range ln.batches {
			for _, en := range b.entries {
				sh.merging = en.to
				if !s.deliverTo(part, sh, en.to, en.msg) {
					s.drop(sh, en.to)
				}
			}
			merged -= int64(len(b.entries))
			s.pool.put(b)
		}
		sh.n += ln.n
		sh.combined += merged // what the sender folded into its cells
		clear(ln.batches)     // the pool owns them now; do not pin them here
		ln.batches = ln.batches[:0]
		ln.n = 0
	}
	clear(sh.orphans)
}

// reset empties every shard — every pending cell and the counters — so
// the store can take the next superstep's messages. After
// a normal superstep the scan has already drained every pending cell,
// so this reads only the summaries and the stale bits in them. The
// caller must be the only goroutine touching the store.
func (s *messageStore) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		if s.scalar == 0 { // cs cells hold no pointers and die with their bits
			sh.pending.forEach(func(slot int) { s.takeCell(&sh.cells, slot) })
		}
		sh.pending.reset()
		sh.n, sh.combined, sh.dropped = 0, 0, 0
	}
}

// replayDeliver delivers one message straight into part's shard,
// combining like mergeLane does. Coordinator-only (no locking):
// checkpoint restore rebuilds inboxes on a single goroutine, in the
// checkpoint's ascending ID order. Mail for an ID without a slot, which
// only a damaged checkpoint holds, is ignored.
func (s *messageStore) replayDeliver(part *partition, to VertexID, msg Value) {
	sh := &s.shards[part.idx]
	s.grow(&sh.cells, len(part.slots))
	s.deliverTo(part, sh, to, msg)
	sh.n++
}

// cell returns the messages in a pending cell. A cs cell is boxed
// here, freshly each time, for the paths that may hold several at once
// (subgraph mode, evict); vertex mode delivers in a reused box.
func (s *messageStore) cell(cl *cells, slot int) []Value {
	switch {
	case s.scalar != 0:
		return []Value{s.scalar.box(cl.cs[slot])}
	case s.combiner != nil:
		return []Value{cl.c[slot]}
	}
	return cl.m[slot]
}

// takeCell empties a pending cell and returns its messages.
func (s *messageStore) takeCell(cl *cells, slot int) []Value {
	msgs := s.cell(cl, slot)
	cl.pending.clear(slot)
	if cl.c != nil {
		cl.c[slot] = nil
	} else if cl.m != nil {
		cl.m[slot] = nil
	}
	return msgs
}

// take removes and returns the messages for the vertex in `slot`. Only
// the shard's owning worker may call it, after the sending superstep's
// barrier and mergeLane.
func (s *messageStore) take(shard, slot int) []Value {
	sh := &s.shards[shard]
	if slot>>6 >= len(sh.pending.w) || !sh.pending.test(slot) {
		return nil
	}
	return s.takeCell(&sh.cells, slot)
}

// remap follows a partition rebuild: cell perm[s] of every sender's
// lane into the partition is the old cell s. A removed slot maps to -1
// and holds nothing, its cells evicted with the vertex, and the shard
// itself is empty until the merge.
func (s *messageStore) remap(shard int, perm []int32, newLen int) {
	for sender := range s.lanes {
		ln := &s.lanes[sender][shard]
		old := ln.cells
		if old.pending.w == nil {
			continue // no combiner: lanes have no cells
		}
		ln.cells = cells{}
		s.grow(&ln.cells, newLen)
		old.pending.forEach(func(slot int) {
			ns := int(perm[slot])
			if s.scalar != 0 {
				ln.cs[ns] = old.cs[slot]
			} else {
				ln.c[ns] = old.c[slot]
			}
			ln.pending.set(ns)
		})
	}
}

// hasPending reports whether the shard holds any undelivered messages.
// Valid only after every lane column has been merged into the shards
// (engine.mergeLanes does this at each barrier, and checkpoint recovery
// delivers straight into shards), which is when the engine's partition
// skip consults it.
func (s *messageStore) hasPending(shard int) bool {
	return s.shards[shard].pending.any()
}

// trafficMatrix snapshots the lane matrix's per-cell message counts:
// element [s][d] is the number of messages (pre-combine) worker s sent
// toward partition d this superstep. It must be read at the barrier
// before mergeLane folds the columns away; at that point a fresh
// store's shards are empty, so the matrix sums to the superstep's
// MessagesSent.
func (s *messageStore) trafficMatrix() [][]int64 {
	m := make([][]int64, len(s.lanes))
	for i := range s.lanes {
		row := make([]int64, len(s.lanes[i]))
		for j := range s.lanes[i] {
			row[j] = s.lanes[i][j].n
		}
		m[i] = row
	}
	return m
}

// combinedTotal returns how many messages combiners merged away across
// all shards. It counts a lane's share only once the lane is merged.
func (s *messageStore) combinedTotal() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].combined
	}
	return n
}

// encode serializes the undelivered messages of part's shard, for
// checkpoints. Pending cells are walked in slot order, which is
// ascending vertex order.
func (s *messageStore) encode(part *partition, e *Encoder) {
	sh := &s.shards[part.idx]
	e.PutUvarint(uint64(sh.pending.count()))
	sh.pending.forEach(func(slot int) {
		e.PutVarint(int64(part.slots[slot].id))
		msgs := s.cell(&sh.cells, slot)
		e.PutUvarint(uint64(len(msgs)))
		for _, m := range msgs {
			EncodeTyped(e, m)
		}
	})
}

// inboxEntry is one decoded checkpoint inbox: the undelivered messages
// of one vertex, not yet routed to a slot.
type inboxEntry struct {
	id   VertexID
	msgs []Value
}

// decodeInbox decodes one shard's encoded form.
func decodeInbox(d *Decoder, into []inboxEntry) ([]inboxEntry, error) {
	nIDs := d.Count(2)
	for i := 0; i < nIDs && d.Err() == nil; i++ {
		ent := inboxEntry{id: VertexID(d.Varint())}
		nMsgs := d.Count(1)
		for j := 0; j < nMsgs && d.Err() == nil; j++ {
			v, err := DecodeTyped(d)
			if err != nil {
				return into, err
			}
			ent.msgs = append(ent.msgs, v)
		}
		into = append(into, ent)
	}
	return into, d.Err()
}
