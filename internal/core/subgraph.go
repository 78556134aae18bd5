package core

import (
	"graft/internal/pregel"
	"graft/internal/trace"
)

// InstrumentSubgraph wraps a subgraph computation with Graft's capture
// logic, the subgraph-mode counterpart of Instrument. When a captured
// subgraph computes, every member vertex gets a full vertex capture —
// its incoming messages, the sends attributed to it, value before and
// after — built by the same record path as a vertex-mode capture, so a
// subgraph step stays single-vertex debuggable, plus one
// SubgraphCapture carrying the component structure, the internal
// iteration count and the per-component value digest.
func (g *Graft) InstrumentSubgraph(comp pregel.SubgraphComputation) pregel.SubgraphComputation {
	return &instrumentedSubgraph{instrumented: instrumented{g}, user: comp}
}

type instrumentedSubgraph struct {
	instrumented
	user pregel.SubgraphComputation
}

// ComputeSubgraph implements pregel.SubgraphComputation. The component
// computes as a unit, so it is captured as a unit: any member's reason
// captures every member. Each member's record is snapshotted by the
// vertex path's rule applied to the whole component, and its edges are
// the pre-compute ones exactly when some member is statically selected
// or every active vertex is captured.
func (is *instrumentedSubgraph) ComputeSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	g := is.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return is.user.ComputeSubgraph(ctx, sg)
	}
	worker := ctx.WorkerID()
	sc := &g.worker(worker).sub
	slot := g.capSlots[worker].begin(superstep)
	sc.reset(ctx, sg)
	members := sg.Members()

	var known trace.Reason
	for i, v := range members {
		r := &sc.members[i]
		r.reset(superstep, worker)
		g.admit(r, v, sg.Messages(i), superstep)
		known |= r.reasons
	}
	edgesPreCompute := known&^trace.ReasonIncomingConstraint != 0
	if known != 0 || g.cfg.capturesPostHoc() {
		for i, v := range members {
			sc.members[i].snapshot(v)
			if edgesPreCompute {
				trace.PutEdges(&sc.members[i].edges, v.Edges())
			}
		}
	}

	slot.pause()
	exc, err := guard(func() error { return is.user.ComputeSubgraph(sc, sg) })
	slot.resume()

	reasons := known
	for i, v := range members {
		r := &sc.members[i]
		r.reasons |= g.verdict(v, superstep, r.sawMsgViolation, err)
		reasons |= r.reasons
	}
	if reasons != 0 && !g.canceled() {
		g.captureSubgraph(sc, exc, edgesPreCompute)
	}
	slot.pause()
	return err
}

// captureSubgraph writes a record per member of sc's component, then
// the SubgraphCapture summary.
func (g *Graft) captureSubgraph(sc *recordingSubgraphContext, exc *trace.ExceptionInfo, edgesPreCompute bool) {
	sg := sc.sg
	members := sg.Members()
	ids := make([]pregel.VertexID, len(members))
	for i, v := range members {
		ids[i] = v.ID()
		r := &sc.members[i]
		if r.reasons == 0 {
			// Co-member of a captured component without its own trigger:
			// the closest existing category is neighborhood capture.
			r.reasons = trace.ReasonNeighbor
		}
		if !edgesPreCompute {
			trace.PutEdges(&r.edges, v.Edges())
		}
		// The exception belongs to the whole ComputeSubgraph call; it is
		// recorded on the representative member (the subgraph ID).
		var memberExc *trace.ExceptionInfo
		if v.ID() == sg.ID() && g.cfg.CaptureExceptions {
			memberExc = exc
		}
		g.capture(v, sg.Messages(i), r, edgesPreCompute, sc.halted, memberExc)
	}
	_ = g.workerSinks[sc.WorkerID()].WriteSubgraphCapture(&trace.SubgraphCapture{
		Superstep:    sc.Superstep(),
		Worker:       sc.WorkerID(),
		ID:           sg.ID(),
		Members:      ids,
		Iterations:   sc.iterations,
		MessagesSent: sc.sent,
		HaltedAfter:  sc.halted,
		Digest:       sg.ValuesDigest(),
	})
}

// recordingSubgraphContext intercepts the subgraph context's sends (to
// record each in its sending member's record), halt votes, and
// iteration reports. Each worker recycles one, its records sized to the
// largest component it has computed.
type recordingSubgraphContext struct {
	pregel.SubgraphContext
	g       *Graft
	sg      *pregel.Subgraph
	members []record

	sent       int64
	iterations int64
	halted     bool
}

// reset prepares the context for sg's compute.
func (c *recordingSubgraphContext) reset(ctx pregel.SubgraphContext, sg *pregel.Subgraph) {
	c.SubgraphContext, c.sg = ctx, sg
	c.sent, c.iterations, c.halted = 0, 0, false
	if n := sg.NumMembers(); n > len(c.members) {
		c.members = append(c.members, make([]record, n-len(c.members))...)
	}
}

// SendMessage implements pregel.SubgraphContext. A send from a vertex
// that is not a member breaks SendMessage's contract: it is delivered
// and counted, and recorded nowhere.
func (c *recordingSubgraphContext) SendMessage(from, to pregel.VertexID, msg pregel.Value) {
	if i, ok := c.sg.Index(from); ok {
		c.members[i].send(c.g, from, to, msg)
	}
	c.sent++
	c.SubgraphContext.SendMessage(from, to, msg)
}

// VoteToHalt implements pregel.SubgraphContext.
func (c *recordingSubgraphContext) VoteToHalt() {
	c.halted = true
	c.SubgraphContext.VoteToHalt()
}

// AddIterations implements pregel.SubgraphContext.
func (c *recordingSubgraphContext) AddIterations(n int64) {
	c.iterations += n
	c.SubgraphContext.AddIterations(n)
}
