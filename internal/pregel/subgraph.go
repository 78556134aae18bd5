package pregel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sort"
	"time"
)

// ComputeMode selects the unit of computation the engine dispatches
// per superstep.
type ComputeMode int

const (
	// ModeVertex is the classic Pregel/Giraph model and the zero value:
	// Compute runs once per active vertex per superstep.
	ModeVertex ComputeMode = iota
	// ModeSubgraph is the GoFFish-style partition-level model:
	// ComputeSubgraph runs once per active connected component of a
	// partition per superstep, letting a sequential algorithm traverse
	// the whole component between barriers. Traversal workloads converge
	// in O(partition diameter) supersteps instead of O(graph diameter).
	ModeSubgraph
)

func (m ComputeMode) String() string {
	switch m {
	case ModeVertex:
		return "vertex"
	case ModeSubgraph:
		return "subgraph"
	}
	return fmt.Sprintf("ComputeMode(%d)", int(m))
}

// SubgraphComputation is the partition-level program of ModeSubgraph.
// ComputeSubgraph is called once per active subgraph (connected
// component of one partition) per superstep, and may read and write
// every member vertex sequentially. Boundary messages — sends to
// vertices outside the subgraph — travel through the same message
// plane as vertex mode and are delivered at the next superstep.
//
// Like Computation.Compute, ComputeSubgraph must be a pure function of
// the subgraph, its incoming messages and the context, and must
// process members deterministically (iterate them in member order),
// or trace replay cannot reproduce it.
type SubgraphComputation interface {
	ComputeSubgraph(ctx SubgraphContext, sg *Subgraph) error
}

// SubgraphFunc adapts a function to SubgraphComputation.
type SubgraphFunc func(ctx SubgraphContext, sg *Subgraph) error

// ComputeSubgraph implements SubgraphComputation.
func (f SubgraphFunc) ComputeSubgraph(ctx SubgraphContext, sg *Subgraph) error {
	return f(ctx, sg)
}

// SubgraphContext mirrors the vertex Context's send/aggregate/halt
// surface for one subgraph during one superstep. It is only valid for
// the duration of the ComputeSubgraph call.
type SubgraphContext interface {
	// Superstep returns the current superstep number, starting at 0.
	Superstep() int
	// TotalNumVertices returns the vertex count at the start of the
	// superstep.
	TotalNumVertices() int64
	// TotalNumEdges returns the directed edge count at the start of the
	// superstep.
	TotalNumEdges() int64
	// WorkerID identifies the worker executing this subgraph.
	WorkerID() int
	// GetAggregated returns the value of a registered aggregator as
	// broadcast at the start of this superstep. The returned Value is
	// shared; callers must not mutate it.
	GetAggregated(name string) Value
	// Aggregate folds val into the named aggregator; the merged result
	// is visible from the next superstep.
	Aggregate(name string, val Value)
	// SendMessage delivers msg to the vertex with the given ID at the
	// next superstep, attributed to member from (Graft's trace capture
	// records it as from's outgoing message). The engine takes ownership
	// of msg.
	SendMessage(from, to VertexID, msg Value)
	// VoteToHalt halts the whole subgraph. Every member is reactivated
	// together when any member receives a message in a later superstep.
	VoteToHalt()
	// AddIterations reports n internal sequential iterations (local
	// sweeps, relaxation passes) for the superstep's telemetry.
	AddIterations(n int64)
}

// Subgraph is one weakly-connected component of a partition: the unit
// ComputeSubgraph runs over. Members are sorted by vertex ID and the
// subgraph's identity is its minimum member ID, so discovery is
// deterministic for a given partition content. An edge whose target is
// not a member (see Has) is a boundary edge: it leads to another
// subgraph, possibly on another partition, and crossing it takes a
// message.
type Subgraph struct {
	id      VertexID
	members []*Vertex
	index   map[VertexID]int
	// slots[i] is members[i]'s slot in the owning partition, addressing
	// its inbox cell and awake bit; nil for detached subgraphs.
	slots []int32
	// inbox[i] holds the messages delivered to members[i] this
	// superstep; owned by the engine and valid only during the
	// ComputeSubgraph call.
	inbox [][]Value
}

// NewDetachedSubgraph builds a subgraph outside a running job, for
// context reproduction and tests. Members are sorted by ID; incoming
// maps member IDs to the messages delivered this superstep.
func NewDetachedSubgraph(members []*Vertex, incoming map[VertexID][]Value) *Subgraph {
	ms := append([]*Vertex(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	sg := newSubgraph(ms)
	for i, v := range ms {
		sg.inbox[i] = incoming[v.id]
	}
	return sg
}

// ValuesDigest returns a hex SHA-256 over the subgraph's (member ID,
// value) pairs in member order: the per-component anchor trace capture
// and replay use to compare a subgraph step across modes and runs.
func (sg *Subgraph) ValuesDigest() string {
	h := sha256.New()
	e := NewEncoder()
	for _, v := range sg.members {
		e.Reset()
		e.PutVarint(int64(v.id))
		EncodeTyped(e, v.value)
		h.Write(e.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func newSubgraph(sortedMembers []*Vertex) *Subgraph {
	sg := &Subgraph{
		members: sortedMembers,
		index:   make(map[VertexID]int, len(sortedMembers)),
		inbox:   make([][]Value, len(sortedMembers)),
	}
	for i, v := range sortedMembers {
		sg.index[v.id] = i
	}
	if len(sortedMembers) > 0 {
		sg.id = sortedMembers[0].id
	}
	return sg
}

// ID returns the subgraph identifier: its minimum member vertex ID.
func (sg *Subgraph) ID() VertexID { return sg.id }

// NumMembers returns the member count.
func (sg *Subgraph) NumMembers() int { return len(sg.members) }

// Members returns the member vertices in ascending ID order. The slice
// is owned by the subgraph; callers must not modify it.
func (sg *Subgraph) Members() []*Vertex { return sg.members }

// Member returns the i-th member in ascending ID order.
func (sg *Subgraph) Member(i int) *Vertex { return sg.members[i] }

// Has reports whether id is a member; edges to non-members are
// boundary edges.
func (sg *Subgraph) Has(id VertexID) bool {
	_, ok := sg.index[id]
	return ok
}

// Index returns the member slot of id, or (-1, false).
func (sg *Subgraph) Index(id VertexID) (int, bool) {
	i, ok := sg.index[id]
	if !ok {
		return -1, false
	}
	return i, true
}

// Messages returns the messages delivered to the i-th member this
// superstep. The slice is only valid during the ComputeSubgraph call.
func (sg *Subgraph) Messages(i int) []Value { return sg.inbox[i] }

// MessagesTo returns the messages delivered to member id this
// superstep (nil when id is not a member).
func (sg *Subgraph) MessagesTo(id VertexID) []Value {
	if i, ok := sg.index[id]; ok {
		return sg.inbox[i]
	}
	return nil
}

// ensureSubgraphs (re)discovers the partition's weakly-connected
// components. Called by the owning worker at the start of its superstep
// scan, so discovery parallelizes across partitions and is amortized:
// it only reruns after something invalidated membership (topology
// mutation, vertex add/remove, migration, recovery), flagged via
// subsDirty.
func (p *partition) ensureSubgraphs() {
	if p.subs != nil && !p.subsDirty {
		return
	}
	p.subs = discoverSubgraphs(p)
	p.subsDirty = false
}

// discoverSubgraphs computes the partition's weakly-connected
// components with a union-find over intra-partition edges (an edge
// whose target lives elsewhere is by definition a boundary edge and
// joins nothing here). Components come out sorted by minimum member
// ID with members sorted by ID, so the result is a pure function of
// the partition's content — the determinism the trace digests pin.
func discoverSubgraphs(p *partition) []*Subgraph {
	// order[i] is the slot of the i-th live vertex by ascending ID;
	// rank is its inverse, so an edge target resolves to its union-find
	// element with one index read.
	order := make([]int32, 0, p.live)
	for s, v := range p.slots {
		if v != nil {
			order = append(order, int32(s))
		}
	}
	sort.Slice(order, func(i, j int) bool { return p.slots[order[i]].id < p.slots[order[j]].id })
	rank := make([]int32, len(p.slots))
	parent := make([]int, len(order))
	for i, s := range order {
		rank[s] = int32(i)
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for i, s := range order {
		for _, e := range p.slots[s].edges {
			if ts, ok := p.index.lookup(e.Target); ok {
				ri, rj := find(i), find(int(rank[ts]))
				if ri != rj {
					if ri > rj { // root at the smaller element = smaller ID
						ri, rj = rj, ri
					}
					parent[rj] = ri
				}
			}
		}
	}
	groups := make(map[int][]int32)
	roots := make([]int, 0)
	for i, s := range order {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], s)
	}
	sort.Ints(roots) // root element order == minimum-member-ID order
	subs := make([]*Subgraph, 0, len(roots))
	for _, r := range roots {
		slots := groups[r]
		members := make([]*Vertex, len(slots))
		for i, s := range slots {
			members[i] = p.slots[s]
		}
		sg := newSubgraph(members)
		sg.slots = slots
		subs = append(subs, sg)
	}
	return subs
}

// subgraphCtx implements SubgraphContext over one worker's superstep
// context, sharing its lane buffers, combining and replay suppression.
type subgraphCtx struct {
	w    *workerCtx
	halt bool
	// iterations accumulates AddIterations across the worker's
	// subgraphs; the worker folds it into its result.
	iterations int64
}

func (c *subgraphCtx) Superstep() int               { return c.w.superstep }
func (c *subgraphCtx) TotalNumVertices() int64      { return c.w.numVertices }
func (c *subgraphCtx) TotalNumEdges() int64         { return c.w.numEdges }
func (c *subgraphCtx) WorkerID() int                { return c.w.worker }
func (c *subgraphCtx) GetAggregated(n string) Value { return c.w.GetAggregated(n) }
func (c *subgraphCtx) Aggregate(n string, v Value)  { c.w.Aggregate(n, v) }
func (c *subgraphCtx) VoteToHalt()                  { c.halt = true }
func (c *subgraphCtx) AddIterations(n int64)        { c.iterations += n }

func (c *subgraphCtx) SendMessage(from, to VertexID, msg Value) {
	_ = from // sender attribution is consumed by the trace instrumentation wrapper
	c.w.SendMessage(to, msg)
}

// NewSubgraphJob creates a job over g running scomp in ModeSubgraph.
// The configuration's ComputeMode is forced to ModeSubgraph.
func NewSubgraphJob(g *Graph, scomp SubgraphComputation, cfg Config) *Job {
	cfg.ComputeMode = ModeSubgraph
	j := NewJob(g, nil, cfg)
	j.scomp = scomp
	return j
}

// runSubgraphWorker is the ModeSubgraph counterpart of runWorker: it
// scans the partition's subgraphs instead of its vertices.
func (en *engine) runSubgraphWorker(w int, nv, ne int64) (workerResult, error) {
	var res workerResult
	t0 := time.Now()
	capReporter, _ := en.job.scomp.(CaptureTimeReporter)
	var capBefore int64
	if capReporter != nil {
		capBefore = capReporter.CaptureNanos(w)
	}
	ctx := en.workerCtx(w, nv, ne)
	sctx := &subgraphCtx{w: ctx}
	err := en.computeSubgraphs(sctx, en.parts[w], en.cur, &res)
	res.iterations = sctx.iterations
	if err != nil {
		return res, err
	}
	ctx.flushAll()
	res.sent = ctx.sent
	res.aggPartial = ctx.aggPartial
	res.removals = ctx.removals
	res.additions = ctx.additions
	res.computeNanos = time.Since(t0).Nanoseconds()
	if capReporter != nil {
		res.captureNanos = capReporter.CaptureNanos(w) - capBefore
	}
	return res, nil
}

// computeSubgraphs runs one superstep of subgraph computes over part,
// taking each member's mail from inbox by slot. A subgraph computes
// when any member is active; a message to any member wakes the whole
// subgraph; VoteToHalt halts every member together. Active counting
// and the awake bitmap stay per-vertex, so convergence and the empty-
// frontier skip are mode-independent. Live supersteps and confined
// replay both run through here.
func (en *engine) computeSubgraphs(sctx *subgraphCtx, part *partition, inbox *messageStore, res *workerResult) error {
	part.ensureSubgraphs()
	for si, sg := range part.subs {
		if si&15 == 0 {
			if err := en.ctx.Err(); err != nil {
				return fmt.Errorf("pregel: worker %d canceled in superstep %d: %w", part.idx, sctx.w.superstep, err)
			}
		}
		active := false
		for i, v := range sg.members {
			msgs := inbox.take(part.idx, int(sg.slots[i]))
			sg.inbox[i] = msgs
			if len(msgs) > 0 {
				res.received += int64(len(msgs))
				v.halted = false // message-wake, subgraph-wide below
			}
			if !v.halted {
				active = true
			}
		}
		if !active {
			continue
		}
		// The subgraph computes as a unit: every member participates in
		// the sequential pass, halted or not.
		for _, v := range sg.members {
			v.halted = false
		}
		res.vertices += int64(len(sg.members))
		res.subgraphs++
		sctx.halt = false
		err := en.safeComputeSubgraph(sctx, sg)
		clear(sg.inbox)
		if err != nil {
			return err
		}
		for i, v := range sg.members {
			if sctx.halt {
				v.halted = true
			}
			if v.halted {
				part.awake.clear(int(sg.slots[i]))
			} else {
				part.awake.set(int(sg.slots[i]))
			}
		}
		if !sctx.halt {
			res.active += int64(len(sg.members))
		}
	}
	return nil
}

// replaySubgraphWorker is the confined-recovery counterpart of
// replayWorker for ModeSubgraph: it re-runs superstep t's subgraph
// computes against the snapshot aggregates with sends, aggregation and
// mutations suppressed, rebuilding member state (and re-emitting
// instrumentation captures) exactly as the original superstep did.
func (en *engine) replaySubgraphWorker(p, t int, snap stepSnapshot, inbox *messageStore) error {
	var res workerResult
	sctx := &subgraphCtx{w: en.replayCtx(p, t, snap)}
	return en.computeSubgraphs(sctx, en.parts[p], inbox, &res)
}

func (en *engine) safeComputeSubgraph(ctx *subgraphCtx, sg *Subgraph) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ComputeError{
				VertexID:  sg.id,
				Superstep: ctx.w.superstep,
				Worker:    ctx.w.worker,
				Panic:     p,
				Stack:     string(debug.Stack()),
			}
		}
	}()
	if cerr := en.job.scomp.ComputeSubgraph(ctx, sg); cerr != nil {
		return &ComputeError{VertexID: sg.id, Superstep: ctx.w.superstep, Worker: ctx.w.worker, Err: cerr}
	}
	return nil
}
