package pregel

import "fmt"

// msgFlushBatch is the default for Config.MsgFlushBatch: how many
// outgoing messages a worker buffers per destination partition before
// handing them to the message plane (a lane append in PlaneLanes mode,
// a shard-lock acquisition in PlaneMutex mode).
const msgFlushBatch = 1024

// workerCtx implements Context for one worker during one superstep.
type workerCtx struct {
	en          *engine
	worker      int
	superstep   int
	numVertices int64
	numEdges    int64
	flushBatch  int

	// out is the PlaneMutex send buffer, one slice per destination
	// partition.
	out [][]msgEntry
	// lane is the PlaneLanes send buffer: the open pooled batch per
	// destination partition, handed to the lane matrix when full.
	lane []*msgBatch
	// laneIdx maps destination vertex to its entry index in the open
	// batch, for sender-side combining. Non-nil only in PlaneLanes mode
	// with a combiner installed.
	laneIdx []map[VertexID]int

	sent       int64
	aggPartial map[string]Value
	removals   []VertexID
	additions  []vertexAddition

	// replay marks a confined-recovery re-execution: computes run to
	// rebuild vertex state (and re-emit instrumentation captures), but
	// their outputs — sends, aggregation, mutation requests — already
	// happened and are replayed from the outbox logs, so the context
	// swallows them. bcast, when non-nil, overrides the engine's live
	// aggregate broadcast with the replayed superstep's snapshot.
	replay bool
	bcast  map[string]Value
}

func (c *workerCtx) Superstep() int          { return c.superstep }
func (c *workerCtx) TotalNumVertices() int64 { return c.numVertices }
func (c *workerCtx) TotalNumEdges() int64    { return c.numEdges }
func (c *workerCtx) WorkerID() int           { return c.worker }

func (c *workerCtx) GetAggregated(name string) Value {
	bc := c.en.broadcast
	if c.bcast != nil {
		bc = c.bcast
	}
	v, ok := bc[name]
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
	if c.replay {
		// Confined replay: the original send is in the outbox log and is
		// delivered from there; re-sending would double it.
		return
	}
	c.sent++
	p := c.en.partitionFor(to)
	if c.lane != nil {
		c.laneSend(p, to, msg)
		return
	}
	c.out[p] = append(c.out[p], msgEntry{to: to, msg: msg})
	if len(c.out[p]) >= c.flushBatch {
		c.en.next.deliver(c.en.parts[p], c.out[p])
		c.out[p] = c.out[p][:0]
	}
}

// laneSend buffers one message on the PlaneLanes path. With a combiner
// installed it combines at the sender: messages to a destination
// already in the open batch merge in place, so the lane (and the
// merge at the barrier) sees pre-combined traffic.
//
// Sender-side combining is adaptive per destination partition. The
// index lookup costs one map operation per send while the savings are
// one merge-time map operation per hit, so the index only pays for
// itself on concentrated fan-in (hub-heavy graphs, where nearly every
// send collapses in place); on spread-out traffic it is pure overhead
// on top of the merge-time combine that happens anyway. Each flushed
// batch votes: a batch whose sends mostly missed the index turns it
// off for this partition for the rest of the superstep.
func (c *workerCtx) laneSend(p int, to VertexID, msg Value) {
	b := c.lane[p]
	if b == nil {
		b = c.en.pool.get()
		c.lane[p] = b
	}
	if c.laneIdx != nil && c.laneIdx[p] != nil {
		if i, ok := c.laneIdx[p][to]; ok {
			b.entries[i].msg = c.en.cfg.Combiner.Combine(to, b.entries[i].msg, msg)
			b.n++
			b.combined++
			return
		}
		c.laneIdx[p][to] = len(b.entries)
	}
	b.entries = append(b.entries, msgEntry{to: to, msg: msg})
	b.n++
	if len(b.entries) >= c.flushBatch {
		if c.laneIdx != nil && c.laneIdx[p] != nil {
			if b.combined*4 >= b.n*3 {
				clear(c.laneIdx[p])
			} else {
				c.laneIdx[p] = nil
				c.en.laneCombineOff[c.worker][p] = true
			}
		}
		c.en.next.laneAppend(c.worker, p, b)
		c.lane[p] = nil
	}
}

func (c *workerCtx) SendMessageToAllEdges(v *Vertex, msg Value) {
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
	if c.replay {
		return // replayed from the mutation log
	}
	c.removals = append(c.removals, id)
}

func (c *workerCtx) AddVertexRequest(id VertexID, value Value) {
	if c.replay {
		return // replayed from the mutation log
	}
	c.additions = append(c.additions, vertexAddition{id: id, value: value})
}

func (c *workerCtx) flushAll() {
	if c.lane != nil {
		for p, b := range c.lane {
			if b == nil {
				continue
			}
			if len(b.entries) > 0 {
				c.en.next.laneAppend(c.worker, p, b)
			} else {
				c.en.pool.put(b)
			}
			c.lane[p] = nil
		}
		return
	}
	for p := range c.out {
		if len(c.out[p]) > 0 {
			c.en.next.deliver(c.en.parts[p], c.out[p])
			c.out[p] = c.out[p][:0]
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
