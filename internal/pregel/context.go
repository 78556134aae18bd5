package pregel

import "fmt"

// msgFlushBatch is how many boxed messages one pooled lane batch holds.
const msgFlushBatch = 1024

// workerCtx implements Context for one worker during one superstep.
type workerCtx struct {
	en          *engine
	worker      int
	superstep   int
	numVertices int64
	numEdges    int64

	// out is the worker's row of the lane matrix: lane p takes what it
	// sends toward partition p this superstep.
	out []msgLane
	// scalar is the store's scalar combiner: when set, sends fold
	// unboxed bits.
	scalar scalarCombiner
	// computing is the vertex whose Compute is running; resolved says
	// the partition's edge slot column has been checked this superstep.
	computing *Vertex
	resolved  bool
	aggName   string   // this superstep's last GetAggregated name
	agg       Value    // and its value, nil for none
	box       Value    // a scalar cell's message, reused for every vertex
	inbox     [1]Value // hands box to Compute (see Computation.Compute)

	aggPartial map[string]Value
	removals   []VertexID
}

func (c *workerCtx) Superstep() int          { return c.superstep }
func (c *workerCtx) TotalNumVertices() int64 { return c.numVertices }
func (c *workerCtx) TotalNumEdges() int64    { return c.numEdges }
func (c *workerCtx) WorkerID() int           { return c.worker }

func (c *workerCtx) GetAggregated(name string) Value {
	if c.agg == nil || name != c.aggName {
		v, ok := c.en.broadcast[name]
		if !ok {
			panic(fmt.Sprintf("pregel: GetAggregated: unregistered aggregator %q", name))
		}
		c.aggName, c.agg = name, v
	}
	return c.agg
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
	p := c.en.partitionFor(to)
	if c.en.cfg.Combiner != nil {
		if slot, ok := c.en.parts[p].index.lookup(to); ok {
			c.fold(p, slot, to, msg)
			return
		}
		if c.scalar != 0 { // the plane unboxes at the send: the caller may reuse msg
			msg = c.scalar.box(c.scalar.bits(msg))
		}
	}
	ln := &c.out[p]
	ln.n++
	c.en.next.push(ln, msgEntry{to: to, msg: msg}, c.en.flushBatch)
}

// fold folds one message into cell `slot` of lane p, after whatever
// this worker has already sent there this superstep.
func (c *workerCtx) fold(p, slot int, to VertexID, msg Value) {
	ln := &c.out[p]
	ln.n++
	if c.scalar != 0 {
		c.scalar.put(&ln.cells, slot, c.scalar.bits(msg))
	} else {
		c.en.next.put(&ln.cells, slot, to, msg)
	}
}

// edgeSlots returns v's run of its partition's edge slot column, or nil
// (without a combiner, when v is not the vertex being computed, or when
// its targets changed since the build). The first call of a superstep
// rebuilds a stale column.
func (c *workerCtx) edgeSlots(v *Vertex) []uint32 {
	p := c.en.parts[c.worker]
	if v != c.computing || c.en.cfg.Combiner == nil || p.edges+int64(p.edgeDelta) >= 1<<31 {
		return nil // no cells to fold into, or runs Vertex.dst cannot address
	}
	if !c.resolved {
		c.resolved = true
		c.en.resolveEdges(p)
	}
	if v.dst < 0 {
		return nil
	}
	return p.dst[v.dst : int(v.dst)+len(v.edges)]
}

func (c *workerCtx) SendMessageToAllEdges(v *Vertex, msg Value) {
	col := c.edgeSlots(v)
	shift, mask := c.en.slotShift, uint32(1)<<c.en.slotShift-1
	// Bits are copies by construction: unbox once, fold into every
	// edge's destination cell.
	if c.scalar != 0 {
		bits := c.scalar.bits(msg)
		for i := range v.edges {
			if col == nil || col[i] == noSlot {
				c.SendMessage(v.edges[i].Target, msg)
				continue
			}
			ln := &c.out[col[i]&mask]
			ln.n++
			c.scalar.put(&ln.cells, int(col[i]>>shift), bits)
		}
		return
	}
	// Each recipient normally gets its own Value: a combiner is allowed
	// to mutate stored messages, so sharing one object across inboxes
	// would corrupt them. Values that declare themselves immutable can
	// skip the per-edge clone when no combiner is installed — nothing
	// will ever write to the shared object.
	_, immutable := msg.(ImmutableValue)
	immutable = immutable && c.en.cfg.Combiner == nil
	// Otherwise the original is sent on the LAST edge, clones on the
	// ones before: once a Value is handed to SendMessage the plane owns
	// it, and with sender-side combining a combiner may mutate it in
	// place while the loop is still running (duplicate parallel edges to
	// one target). Cloning msg after handing it off would copy that
	// mutation into later recipients.
	last := len(v.edges) - 1
	for i := range v.edges {
		m := msg
		if i < last && !immutable {
			m = msg.Clone()
		}
		if col == nil || col[i] == noSlot {
			c.SendMessage(v.edges[i].Target, m)
		} else {
			c.fold(int(col[i]&mask), int(col[i]>>shift), v.edges[i].Target, m)
		}
	}
}

func (c *workerCtx) RemoveVertexRequest(id VertexID) {
	c.removals = append(c.removals, id)
}

// sentTotal returns how many messages the worker sent this superstep.
func (c *workerCtx) sentTotal() (n int64) {
	for i := range c.out {
		n += c.out[i].n
	}
	return n
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
