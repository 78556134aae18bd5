package pregel

import "fmt"

// msgFlushBatch is how many outgoing messages a worker buffers per
// destination partition before appending the batch to its lane.
const msgFlushBatch = 1024

// workerCtx implements Context for one worker during one superstep.
type workerCtx struct {
	en          *engine
	worker      int
	superstep   int
	numVertices int64
	numEdges    int64
	flushBatch  int

	// lane is the send buffer: the open pooled batch per destination
	// partition, handed to the lane matrix when full.
	lane []*msgBatch
	// laneIdx is the sender-side combining index, non-nil only with a
	// combiner installed: laneIdx[p][s] holds
	// generation<<32 | position for the destination in slot s of partition
	// p (partition indexes are read-only during the compute phase), and
	// says that the destination already has an entry at that position of
	// the open batch — if the generation is laneGen[p], the number of that
	// batch. Handing a batch to the lane bumps the generation, which
	// outdates every stamp at once, so nothing is cleared between batches
	// or supersteps.
	laneIdx [][]uint64
	laneGen []uint32
	// scalar is the store's scalar combiner: when set, sends go out as
	// unboxed rows.
	scalar scalarCombiner

	sent       int64
	aggPartial map[string]Value
	removals   []VertexID
	additions  []vertexAddition
}

func (c *workerCtx) Superstep() int          { return c.superstep }
func (c *workerCtx) TotalNumVertices() int64 { return c.numVertices }
func (c *workerCtx) TotalNumEdges() int64    { return c.numEdges }
func (c *workerCtx) WorkerID() int           { return c.worker }

func (c *workerCtx) GetAggregated(name string) Value {
	v, ok := c.en.broadcast[name]
	if !ok {
		panic(fmt.Sprintf("pregel: GetAggregated: unregistered aggregator %q", name))
	}
	return v
}

func (c *workerCtx) Aggregate(name string, val Value) {
	entry, ok := c.en.job.aggs[name]
	if !ok {
		panic(fmt.Sprintf("pregel: Aggregate: unregistered aggregator %q", name))
	}
	if cur, ok := c.aggPartial[name]; ok {
		c.aggPartial[name] = entry.agg.Aggregate(cur, val)
	} else {
		c.aggPartial[name] = entry.agg.Aggregate(entry.agg.CreateInitial(), val)
	}
}

func (c *workerCtx) SendMessage(to VertexID, msg Value) {
	if c.scalar != 0 {
		c.sendBits(to, c.scalar.bits(msg))
		return
	}
	c.sent++
	c.laneSend(c.en.partitionFor(to), to, msg)
}

// openBatch returns lane p's open batch, taking one from the pool when
// the last was handed off.
func (c *workerCtx) openBatch(p int) *msgBatch {
	b := c.lane[p]
	if b == nil {
		b = c.en.pool.get(c.scalar != 0)
		c.lane[p] = b
	}
	return b
}

// combinePos is the sender-side combining probe: the position in lane
// p's open batch already holding a message for `to`, or -1 after
// stamping `next` — where the caller is about to append one — as that
// position. Destinations without a slot are never stamped: their
// messages meet in the shard's orphans instead.
func (c *workerCtx) combinePos(p int, to VertexID, next int) int {
	slot, ok := c.en.parts[p].index.lookup(to)
	if !ok {
		return -1
	}
	idx := c.laneIdx[p]
	if slot >= len(idx) { // first use, or the partition grew at a barrier
		idx = append(idx, make([]uint64, len(c.en.parts[p].slots)-len(idx))...)
		c.laneIdx[p] = idx
	}
	gen := c.laneGen[p]
	if cell := idx[slot]; uint32(cell>>32) == gen {
		return int(uint32(cell))
	}
	idx[slot] = uint64(gen)<<32 | uint64(next)
	return -1
}

// flushLane hands lane p's open batch to the lane matrix and starts a
// new generation of the combining index.
func (c *workerCtx) flushLane(p int) {
	c.en.next.laneAppend(c.worker, p, c.lane[p])
	c.lane[p] = nil
	if c.laneGen != nil {
		c.laneGen[p]++
		if c.laneGen[p] == 0 {
			// 2³² batches on: stamps of the previous lap would read as
			// current. Generation 0 stays unused — it is what the zeroed
			// cells of a fresh index carry.
			clear(c.laneIdx[p])
			c.laneGen[p] = 1
		}
	}
}

// laneSend buffers one boxed message. With a combiner installed it
// combines at the sender: a message to a destination already in the
// open batch merges in place, so the lane (and the merge at the
// barrier) sees pre-combined traffic.
func (c *workerCtx) laneSend(p int, to VertexID, msg Value) {
	b := c.openBatch(p)
	b.n++
	if c.laneIdx != nil {
		if i := c.combinePos(p, to, len(b.entries)); i >= 0 {
			b.entries[i].msg = c.en.cfg.Combiner.Combine(to, b.entries[i].msg, msg)
			b.combined++
			return
		}
	}
	b.entries = append(b.entries, msgEntry{to: to, msg: msg})
	if len(b.entries) >= c.flushBatch {
		c.flushLane(p)
	}
}

// sendBits is laneSend for a message already unboxed under the scalar
// combiner: the same batching and sender-side combining, over rows.
func (c *workerCtx) sendBits(to VertexID, bits uint64) {
	c.sent++
	p := c.en.partitionFor(to)
	b := c.openBatch(p)
	b.n++
	if i := c.combinePos(p, to, len(b.rows)); i >= 0 {
		b.rows[i].bits = c.scalar.fold(b.rows[i].bits, bits)
		b.combined++
		return
	}
	b.rows = append(b.rows, scalarRow{to: to, bits: bits})
	if len(b.rows) >= c.flushBatch {
		c.flushLane(p)
	}
}

func (c *workerCtx) SendMessageToAllEdges(v *Vertex, msg Value) {
	// Rows are copies by construction: unbox once, send to every edge.
	if c.scalar != 0 {
		bits := c.scalar.bits(msg)
		for i := range v.edges {
			c.sendBits(v.edges[i].Target, bits)
		}
		return
	}
	// Each recipient normally gets its own Value: a combiner is allowed
	// to mutate stored messages, so sharing one object across inboxes
	// would corrupt them. Values that declare themselves immutable can
	// skip the per-edge clone when no combiner is installed — nothing
	// will ever write to the shared object.
	if c.en.cfg.Combiner == nil {
		if _, immutable := msg.(ImmutableValue); immutable {
			for i := range v.edges {
				c.SendMessage(v.edges[i].Target, msg)
			}
			return
		}
	}
	// The original is sent on the LAST edge, clones on the ones before:
	// once a Value is handed to SendMessage the plane owns it, and with
	// sender-side combining a combiner may mutate it in place while the
	// loop is still running (duplicate parallel edges to one target).
	// Cloning msg after handing it off would copy that mutation into
	// later recipients.
	last := len(v.edges) - 1
	for i := range v.edges {
		m := msg
		if i < last {
			m = msg.Clone()
		}
		c.SendMessage(v.edges[i].Target, m)
	}
}

func (c *workerCtx) RemoveVertexRequest(id VertexID) {
	c.removals = append(c.removals, id)
}

func (c *workerCtx) AddVertexRequest(id VertexID, value Value) {
	c.additions = append(c.additions, vertexAddition{id: id, value: value})
}

func (c *workerCtx) flushAll() {
	for p, b := range c.lane {
		if b != nil {
			c.flushLane(p)
		}
	}
}

// masterCtx implements MasterContext for one superstep.
type masterCtx struct {
	en          *engine
	numVertices int64
	numEdges    int64
	halted      bool
}

func (m *masterCtx) Superstep() int          { return m.en.superstep }
func (m *masterCtx) TotalNumVertices() int64 { return m.numVertices }
func (m *masterCtx) TotalNumEdges() int64    { return m.numEdges }
func (m *masterCtx) HaltComputation()        { m.halted = true }

func (m *masterCtx) GetAggregated(name string) Value {
	v, ok := m.en.broadcast[name]
	if !ok {
		panic(fmt.Sprintf("pregel: GetAggregated: unregistered aggregator %q", name))
	}
	return v
}

func (m *masterCtx) AggregatedNames() []string { return m.en.job.aggNames }

func (m *masterCtx) SetAggregated(name string, val Value) {
	if _, ok := m.en.job.aggs[name]; !ok {
		panic(fmt.Sprintf("pregel: SetAggregated: unregistered aggregator %q", name))
	}
	m.en.broadcast[name] = val
}
