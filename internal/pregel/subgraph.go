package pregel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sort"
)

// SubgraphComputation is the partition-level program of subgraph mode,
// the GoFFish-style model a job built with NewSubgraphJob runs (a job
// built with NewJob runs the classic Pregel/Giraph vertex model).
// ComputeSubgraph is called once per active subgraph (connected
// component of one partition) per superstep, and may read and write
// every member vertex sequentially, so a sequential algorithm traverses
// the whole component between barriers and traversal workloads converge
// in O(partition diameter) supersteps instead of O(graph diameter).
// Message transport, aggregators, checkpoints and recovery are the same
// in both modes. Boundary messages — sends to
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
// mutation, vertex add/remove, recovery), flagged via
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
	// order[i] is the slot of the i-th live vertex, which is also the
	// i-th by ascending ID; rank is its inverse, so an edge target
	// resolves to its union-find element with one index read.
	order := make([]int32, 0, p.index.len())
	for s, v := range p.slots {
		if v != nil {
			order = append(order, int32(s))
		}
	}
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
	// A root is its component's smallest element, so roots are first
	// seen in ascending order, which is minimum-member-ID order.
	groups := make(map[int][]int32)
	roots := make([]int, 0)
	for i, s := range order {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], s)
	}
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
// context, sharing its lane buffers and combining.
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

// NewSubgraphJob creates a job over g running scomp in subgraph mode.
func NewSubgraphJob(g *Graph, scomp SubgraphComputation, cfg Config) *Job {
	j := NewJob(g, nil, cfg)
	j.scomp = scomp
	return j
}

// computeSubgraphs runs one superstep of subgraph computes over part,
// taking each member's mail from inbox by slot. A subgraph computes
// when any member is active; a message to any member wakes the whole
// subgraph; VoteToHalt halts every member together. Active counting
// and the awake bitmap stay per-vertex, so convergence and the empty-
// frontier skip are mode-independent.
func (en *engine) computeSubgraphs(ctx *workerCtx, part *partition, inbox *messageStore, res *workerResult) error {
	sctx := &subgraphCtx{w: ctx}
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
				res.MessagesReceived += int64(len(msgs))
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
		res.VerticesProcessed += int64(len(sg.members))
		res.SubgraphsComputed++
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
	res.InternalIterations = sctx.iterations
	return nil
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
