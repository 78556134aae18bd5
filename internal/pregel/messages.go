package pregel

import (
	"sort"
	"sync"
)

// msgEntry is one in-flight message. With sender-side combining a
// single entry may stand for many logical sends.
type msgEntry struct {
	to  VertexID
	msg Value
}

// scalarRow is one in-flight message under a scalarCombiner: the
// message's bits, unboxed. Like an entry it carries the destination ID
// and is resolved to a slot at merge time, after the barrier's
// mutations.
type scalarRow struct {
	to   VertexID
	bits uint64
}

// msgBatch is one flushed batch of entries (or, on the scalar path,
// rows — never both) plus the logical message counts behind them: n
// counts SendMessage calls, combined counts the ones the sender merged
// away before flushing (n - combined == number of entries or rows
// surviving to the lane).
type msgBatch struct {
	entries  []msgEntry
	rows     []scalarRow
	n        int64
	combined int64
}

// batchPool recycles msgBatch objects across flushes and supersteps so
// the steady-state message plane allocates nothing the GC has to mark,
// mirroring the pooled-batch design trace.Sink uses. All of an engine's
// batches hold the same kind of record, so a new batch is given only
// that array.
type batchPool struct {
	p sync.Pool
}

func (bp *batchPool) get(rows bool) *msgBatch {
	if b, ok := bp.p.Get().(*msgBatch); ok {
		return b
	}
	if rows {
		return &msgBatch{rows: make([]scalarRow, 0, msgFlushBatch)}
	}
	return &msgBatch{entries: make([]msgEntry, 0, msgFlushBatch)}
}

func (bp *batchPool) put(b *msgBatch) {
	clear(b.entries) // so the pool does not retain Value pointers; rows hold none
	b.entries, b.rows = b.entries[:0], b.rows[:0]
	b.n, b.combined = 0, 0
	bp.p.Put(b)
}

// msgLane is one cell of the lane matrix: the batches one sender has
// flushed toward one destination partition. Only the sending worker
// appends during the compute phase; only the coordinator or the
// destination's owning worker reads after the barrier.
type msgLane struct {
	batches  []*msgBatch
	n        int64
	combined int64
}

// messageStore holds the messages sent during one superstep for
// delivery at the next. It is sharded by destination partition, and
// each shard is addressed by the destination partition's slots. Writes
// go to the lane matrix without synchronization: each worker appends
// pooled batches to its own row (single writer), and mergeLane folds
// each column into its shard at the barrier (single reader, ordered by
// the barrier). Reads during the next superstep are done exclusively by
// the shard's owning worker and need no locking either. With a combiner
// installed senders pre-combine per destination vertex before flushing,
// and under one of the standard combiners messages travel as unboxed
// rows. The engine keeps two stores and swaps them at every barrier.
type messageStore struct {
	combiner Combiner
	// scalar is the combiner when it is one of the standard ones: lanes
	// then carry rows and shards fold them into cs, and boxes exist only
	// at the edges (takeCell, encode, orphans).
	scalar scalarCombiner
	shards []msgShard
	lanes  [][]msgLane // [sender][dest]
	pool   *batchPool  // shared across the engine's stores
}

// msgShard is the inbox of one partition, indexed by the partition's
// slots: cell s belongs to the vertex in slot s, and pending has a bit
// for every non-empty cell. The superstep scan drains exactly the
// pending cells, so a drained shard is all-nil again and is reused as
// it stands.
type msgShard struct {
	// Exactly one of m/c/cs is used: m without a combiner, cs under a
	// scalar one, c under any other. A cs cell means
	// something only while its pending bit is set.
	m       [][]Value
	c       []Value
	cs      []uint64
	pending bitmap
	// orphans holds messages addressed to IDs that had no slot when
	// they were delivered. integrateMissing resolves them at the barrier
	// (create the vertex, or drop); under a combiner each list has one
	// combined element.
	orphans map[VertexID][]Value
	// n counts messages received (pre-combining), for stats.
	n int64
	// combined counts messages merged away by the combiner (at the
	// sender or the receiver), for the telemetry layer (n - combined
	// messages survive to delivery).
	combined int64
	// merging is the destination of the boxed entry mergeLane is
	// delivering, for the report when a user combiner panics on it.
	merging VertexID
}

func newMessageStore(numShards int, combiner Combiner, pool *batchPool) *messageStore {
	s := &messageStore{combiner: combiner, pool: pool, shards: make([]msgShard, numShards)}
	s.scalar, _ = combiner.(scalarCombiner)
	s.lanes = make([][]msgLane, numShards)
	for i := range s.shards {
		s.shards[i].orphans = make(map[VertexID][]Value)
		s.lanes[i] = make([]msgLane, numShards)
	}
	return s
}

// ensure grows a shard's cells and pending bitmap to cover n slots.
func (s *messageStore) ensure(sh *msgShard, n int) {
	sh.pending = sh.pending.grown(n)
	switch {
	case s.scalar != 0:
		if n > len(sh.cs) {
			sh.cs = append(sh.cs, make([]uint64, n-len(sh.cs))...)
		}
	case s.combiner != nil:
		if n > len(sh.c) {
			sh.c = append(sh.c, make([]Value, n-len(sh.c))...)
		}
	case n > len(sh.m):
		sh.m = append(sh.m, make([][]Value, n-len(sh.m))...)
	}
}

// putBits folds one unboxed message into cell `slot`.
func (s *messageStore) putBits(sh *msgShard, slot int, bits uint64) {
	if sh.pending.test(slot) {
		sh.cs[slot] = s.scalar.fold(sh.cs[slot], bits)
		sh.combined++
		return
	}
	sh.cs[slot] = bits
	sh.pending.set(slot)
}

// put adds one message to cell `slot`, combining if a combiner is
// installed. The shard must already cover the slot.
func (s *messageStore) put(sh *msgShard, slot int, to VertexID, msg Value) {
	if s.scalar != 0 {
		s.putBits(sh, slot, s.scalar.bits(msg))
		return
	}
	if s.combiner != nil {
		if sh.pending.test(slot) {
			sh.c[slot] = s.combiner.Combine(to, sh.c[slot], msg)
			sh.combined++
			return
		}
		sh.c[slot] = msg
	} else {
		sh.m[slot] = append(sh.m[slot], msg)
		if len(sh.m[slot]) > 1 {
			return
		}
	}
	sh.pending.set(slot)
}

// orphan files a message whose destination has no slot.
func (s *messageStore) orphan(sh *msgShard, to VertexID, msg Value) {
	if cur := sh.orphans[to]; s.combiner != nil && len(cur) > 0 {
		cur[0] = s.combiner.Combine(to, cur[0], msg)
		sh.combined++
		return
	}
	sh.orphans[to] = append(sh.orphans[to], msg)
}

// deliverTo routes one message into part's shard: one index read, then
// a slot write. The caller must be the only goroutine touching the
// shard and must have called ensure.
func (s *messageStore) deliverTo(part *partition, sh *msgShard, to VertexID, msg Value) {
	if slot, ok := part.index.lookup(to); ok {
		s.put(sh, slot, to, msg)
	} else {
		s.orphan(sh, to, msg)
	}
}

// laneAppend hands one flushed batch to lane [sender][dest]. Only
// worker `sender` may call it during the compute phase; the single
// writer makes it synchronization-free.
func (s *messageStore) laneAppend(sender, dest int, b *msgBatch) {
	ln := &s.lanes[sender][dest]
	ln.batches = append(ln.batches, b)
	ln.n += b.n
	ln.combined += b.combined
}

// mergeLane folds part's column of the lane matrix into its shard and
// returns the batches to the pool. It must run after the superstep
// barrier, with exactly one goroutine touching the shard (the
// destination's owning worker). Senders are merged in worker order and
// batches in flush order, so the merged inbox order is deterministic.
func (s *messageStore) mergeLane(part *partition) {
	sh := &s.shards[part.idx]
	s.ensure(sh, len(part.slots))
	for sender := range s.lanes {
		ln := &s.lanes[sender][part.idx]
		if ln.n == 0 && len(ln.batches) == 0 {
			continue
		}
		for _, b := range ln.batches {
			for _, r := range b.rows {
				if slot, ok := part.index.lookup(r.to); ok {
					s.putBits(sh, slot, r.bits)
				} else {
					s.orphan(sh, r.to, s.scalar.box(r.bits))
				}
			}
			for _, en := range b.entries {
				sh.merging = en.to
				s.deliverTo(part, sh, en.to, en.msg)
			}
			s.pool.put(b)
		}
		sh.n += ln.n
		sh.combined += ln.combined
		clear(ln.batches) // the pool owns them now; do not pin them here
		ln.batches = ln.batches[:0]
		ln.n, ln.combined = 0, 0
	}
}

// reset empties every shard — every pending cell, the orphans and the
// counters — so the store can take the next superstep's messages. After
// a normal superstep the scan has already drained every pending cell,
// so this is one pass over the (all-zero) bitmaps. The caller must be
// the only goroutine touching the store.
func (s *messageStore) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		if s.scalar == 0 { // cs cells hold no pointers and die with their bits
			sh.pending.forEach(func(slot int) {
				if s.combiner != nil {
					sh.c[slot] = nil
				} else {
					sh.m[slot] = nil
				}
			})
		}
		clear(sh.pending)
		clear(sh.orphans)
		sh.n, sh.combined = 0, 0
	}
}

// replayDeliver delivers one message straight into part's shard,
// combining like mergeLane does. Coordinator-only (no locking):
// checkpoint restore rebuilds inboxes on a single goroutine, in the
// checkpoint's ascending ID order.
func (s *messageStore) replayDeliver(part *partition, to VertexID, msg Value) {
	sh := &s.shards[part.idx]
	s.ensure(sh, len(part.slots))
	s.deliverTo(part, sh, to, msg)
	sh.n++
}

// takeCell empties a pending cell and returns its messages. A cs cell
// is boxed here, freshly each time: Compute may keep the Value (as its
// vertex value, say), so a reused box would alias across vertices.
func (s *messageStore) takeCell(sh *msgShard, slot int) []Value {
	sh.pending.clear(slot)
	if s.scalar != 0 {
		return []Value{s.scalar.box(sh.cs[slot])}
	}
	if s.combiner != nil {
		v := sh.c[slot]
		sh.c[slot] = nil
		return []Value{v}
	}
	msgs := sh.m[slot]
	sh.m[slot] = nil
	return msgs
}

// take removes and returns the messages for the vertex in `slot`. Only
// the shard's owning worker may call it, after the sending superstep's
// barrier and mergeLane.
func (s *messageStore) take(shard, slot int) []Value {
	sh := &s.shards[shard]
	if slot>>6 >= len(sh.pending) || !sh.pending.test(slot) {
		return nil
	}
	return s.takeCell(sh, slot)
}

// remap follows a partition rebuild: cell perm[s] of the rebuilt shard
// is the old cell s.
func (s *messageStore) remap(shard int, perm []int32, newLen int) {
	sh := &s.shards[shard]
	oldC, oldM, oldCS, oldPending := sh.c, sh.m, sh.cs, sh.pending
	sh.c, sh.m, sh.cs, sh.pending = nil, nil, nil, nil
	s.ensure(sh, newLen)
	oldPending.forEach(func(slot int) {
		ns := int(perm[slot])
		switch {
		case s.scalar != 0:
			sh.cs[ns] = oldCS[slot]
		case s.combiner != nil:
			sh.c[ns] = oldC[slot]
		default:
			sh.m[ns] = oldM[slot]
		}
		sh.pending.set(ns)
	})
}

// hasPending reports whether the shard holds any undelivered messages.
// Valid only after every lane column has been merged into the shards
// (integrateMissing does this at each barrier, and checkpoint recovery
// delivers straight into shards), which is when the engine's partition
// skip consults it.
func (s *messageStore) hasPending(shard int) bool {
	return s.shards[shard].pending.any()
}

// orphanIDs returns, in ascending order, the IDs in the shard's
// orphans.
func (sh *msgShard) orphanIDs() []VertexID {
	if len(sh.orphans) == 0 {
		return nil
	}
	ids := make([]VertexID, 0, len(sh.orphans))
	for id := range sh.orphans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// trafficMatrix snapshots the lane matrix's per-cell message counts:
// element [s][d] is the number of messages (pre-combine) worker s sent
// toward partition d this superstep. It must be read at the barrier
// before mergeLane folds the columns away; at that point a fresh
// store's shards are empty, so the matrix sums to total().
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

// total returns the number of messages received across all shards
// (before combining), including messages still sitting in unmerged
// lanes.
func (s *messageStore) total() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].n
	}
	for i := range s.lanes {
		for j := range s.lanes[i] {
			n += s.lanes[i][j].n
		}
	}
	return n
}

// combinedTotal returns how many messages combiners merged away across
// all shards and unmerged lanes.
func (s *messageStore) combinedTotal() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].combined
	}
	for i := range s.lanes {
		for j := range s.lanes[i] {
			n += s.lanes[i][j].combined
		}
	}
	return n
}

// encode serializes the undelivered messages of part's shard, for
// checkpoints. Entries are written in ascending vertex order. The
// scratch slice (pending slots) is reused across shards and
// checkpoints; the possibly-grown slice is returned for the next call.
func (s *messageStore) encode(part *partition, e *Encoder, scratch []int) []int {
	sh := &s.shards[part.idx]
	slots := scratch[:0]
	sh.pending.forEach(func(slot int) { slots = append(slots, slot) })
	sort.Slice(slots, func(i, j int) bool { return part.slots[slots[i]].id < part.slots[slots[j]].id })
	e.PutUvarint(uint64(len(slots)))
	var box Value // cs cells are encoded through one scratch box
	if s.scalar != 0 {
		box = s.scalar.box(0)
	}
	for _, slot := range slots {
		e.PutVarint(int64(part.slots[slot].id))
		if s.scalar != 0 {
			s.scalar.setBox(box, sh.cs[slot])
			e.PutUvarint(1)
			EncodeTyped(e, box)
			continue
		}
		if s.combiner != nil {
			e.PutUvarint(1)
			EncodeTyped(e, sh.c[slot])
			continue
		}
		msgs := sh.m[slot]
		e.PutUvarint(uint64(len(msgs)))
		for _, m := range msgs {
			EncodeTyped(e, m)
		}
	}
	return slots
}

// inboxEntry is one decoded checkpoint inbox: the undelivered messages
// of one vertex, not yet routed to a slot.
type inboxEntry struct {
	id   VertexID
	msgs []Value
}

// decodeInbox decodes one shard's encoded form.
func decodeInbox(d *Decoder, into []inboxEntry) ([]inboxEntry, error) {
	nIDs := d.Uvarint()
	for i := uint64(0); i < nIDs && d.Err() == nil; i++ {
		ent := inboxEntry{id: VertexID(d.Varint())}
		nMsgs := d.Uvarint()
		for j := uint64(0); j < nMsgs && d.Err() == nil; j++ {
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
