package core

import (
	"fmt"
	"runtime/debug"
	"time"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// InstrumentSubgraph wraps a subgraph computation with Graft's capture
// logic, the subgraph-mode counterpart of Instrument. When a captured
// subgraph computes, every member vertex gets a full VertexCapture —
// its incoming messages, the sends attributed to it, value before and
// after — so a subgraph step stays single-vertex debuggable, plus one
// SubgraphCapture carrying the component structure, the internal
// iteration count and the per-component value digest.
func (g *Graft) InstrumentSubgraph(comp pregel.SubgraphComputation) pregel.SubgraphComputation {
	return &instrumentedSubgraph{g: g, user: comp}
}

type instrumentedSubgraph struct {
	g    *Graft
	user pregel.SubgraphComputation
}

// CaptureNanos implements pregel.CaptureTimeReporter; see
// instrumentedComputation.CaptureNanos.
func (is *instrumentedSubgraph) CaptureNanos(w int) int64 {
	if w >= len(is.g.capNanos) {
		return 0
	}
	return is.g.capNanos[w].n
}

// ComputeSubgraph implements pregel.SubgraphComputation.
func (is *instrumentedSubgraph) ComputeSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	g := is.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return is.user.ComputeSubgraph(ctx, sg)
	}
	capStart := time.Now()

	members := sg.Members()
	anyStatic := false
	for _, v := range members {
		if g.reasons[v.ID()] != 0 {
			anyStatic = true
			break
		}
	}
	needPre := anyStatic || g.cfg.CaptureAllActive
	// Pre-compute snapshots follow the vertex-mode policy, but at
	// subgraph granularity: one member's static selection captures the
	// whole component, so every member's pre-state is snapshotted.
	var valuesBefore []pregel.Value
	if needPre || g.cfg.VertexValueConstraint != nil || g.cfg.MessageConstraint != nil ||
		g.cfg.IncomingMessageConstraint != nil {
		valuesBefore = make([]pregel.Value, len(members))
		for i, v := range members {
			valuesBefore[i] = pregel.CloneValue(v.Value())
		}
	}
	var edgesBefore [][]pregel.Edge
	if needPre {
		edgesBefore = make([][]pregel.Edge, len(members))
		for i, v := range members {
			edgesBefore[i] = cloneEdges(v.Edges())
		}
	}

	worker := ctx.WorkerID()
	if worker >= len(g.capNanos) {
		panic(fmt.Sprintf("core: job runs with at least %d workers but Attach was told %d; "+
			"Options.NumWorkers must match pregel.Config.NumWorkers", worker+1, len(g.capNanos)))
	}
	rsc := &recordingSubgraphContext{SubgraphContext: ctx, g: g}

	// Per-member incoming-message constraint (§7 extension), checked
	// against the member's value at delivery time.
	violations := map[pregel.VertexID][]trace.Violation{}
	if g.cfg.IncomingMessageConstraint != nil {
		for i, v := range members {
			for _, m := range sg.Messages(i) {
				if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
					violations[v.ID()] = append(violations[v.ID()], trace.Violation{
						Kind:  trace.IncomingMessageViolation,
						SrcID: -1,
						DstID: v.ID(),
						Value: pregel.CloneValue(m),
					})
				}
			}
		}
	}

	capSlot := &g.capNanos[worker]
	capSlot.n += time.Since(capStart).Nanoseconds()

	var exc *trace.ExceptionInfo
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				stack := string(debug.Stack())
				exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
				err = &PanicError{Value: p, Stack: stack}
			}
		}()
		return is.user.ComputeSubgraph(rsc, sg)
	}()
	capStart = time.Now()
	defer func() { capSlot.n += time.Since(capStart).Nanoseconds() }()
	if err != nil && exc == nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}

	// Fold send-time message violations into their senders' rows.
	for _, viol := range rsc.violations {
		violations[viol.SrcID] = append(violations[viol.SrcID], viol)
	}
	if err == nil && g.cfg.VertexValueConstraint != nil {
		for _, v := range members {
			if !g.cfg.VertexValueConstraint(v.Value(), v.ID(), superstep) {
				violations[v.ID()] = append(violations[v.ID()], trace.Violation{
					Kind:  trace.VertexValueViolation,
					SrcID: v.ID(),
					DstID: v.ID(),
					Value: pregel.CloneValue(v.Value()),
				})
			}
		}
	}

	// The subgraph computes as a unit, so it is captured as a unit: any
	// member's reason captures every member.
	var subReasons trace.Reason
	for _, v := range members {
		subReasons |= g.reasons[v.ID()]
	}
	if g.cfg.CaptureAllActive {
		subReasons |= trace.ReasonAllActive
	}
	for _, vs := range violations {
		for _, viol := range vs {
			switch viol.Kind {
			case trace.VertexValueViolation:
				subReasons |= trace.ReasonVertexConstraint
			case trace.MessageViolation:
				subReasons |= trace.ReasonMessageConstraint
			case trace.IncomingMessageViolation:
				subReasons |= trace.ReasonIncomingConstraint
			}
		}
	}
	if err != nil && g.cfg.CaptureExceptions {
		subReasons |= trace.ReasonException
	}
	if subReasons != 0 {
		g.captureSubgraph(ctx, sg, rsc, valuesBefore, edgesBefore, violations, exc)
	}
	return err
}

// captureSubgraph writes one VertexCapture per member plus the
// SubgraphCapture summary, respecting the MaxCaptures safety net
// (each member record counts toward the limit, like vertex mode).
// Post-compute state goes to the sink live, not cloned: the sink has
// encoded a record by the time its Write returns.
func (g *Graft) captureSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph,
	rsc *recordingSubgraphContext, valuesBefore []pregel.Value, edgesBefore [][]pregel.Edge,
	violations map[pregel.VertexID][]trace.Violation, exc *trace.ExceptionInfo) {

	if g.ctx.Err() != nil {
		return
	}
	superstep, worker := ctx.Superstep(), ctx.WorkerID()
	members := sg.Members()
	sink := g.workerSinks[worker]
	memberIDs := make([]pregel.VertexID, len(members))

	for i, v := range members {
		memberIDs[i] = v.ID()

		if max := g.cfg.maxCaptures(); max >= 0 {
			if n := g.captures.Add(1); n > max {
				g.captures.Add(-1)
				g.limitHit.Store(true)
				continue
			}
		} else {
			g.captures.Add(1)
		}

		reasons := g.reasons[v.ID()]
		if g.cfg.CaptureAllActive {
			reasons |= trace.ReasonAllActive
		}
		for _, viol := range violations[v.ID()] {
			switch viol.Kind {
			case trace.VertexValueViolation:
				reasons |= trace.ReasonVertexConstraint
			case trace.MessageViolation:
				reasons |= trace.ReasonMessageConstraint
			case trace.IncomingMessageViolation:
				reasons |= trace.ReasonIncomingConstraint
			}
		}
		var memberExc *trace.ExceptionInfo
		if exc != nil && g.cfg.CaptureExceptions {
			reasons |= trace.ReasonException
			// The exception belongs to the whole ComputeSubgraph call; it
			// is recorded on the representative member (the subgraph ID).
			if v.ID() == sg.ID() {
				memberExc = exc
			}
		}
		if reasons == 0 {
			// Co-member of a captured component without its own trigger:
			// the closest existing category is neighborhood capture.
			reasons = trace.ReasonNeighbor
		}

		c := &trace.VertexCapture{
			Superstep:   superstep,
			Worker:      worker,
			ID:          v.ID(),
			Reasons:     reasons,
			ValueAfter:  v.Value(),
			HaltedAfter: rsc.halted,
			Violations:  violations[v.ID()],
			Exception:   memberExc,
		}
		if valuesBefore != nil {
			c.ValueBefore = valuesBefore[i]
		}
		if edgesBefore != nil {
			c.Edges = edgesBefore[i]
			c.EdgesPreCompute = true
		} else {
			c.Edges = v.Edges()
		}
		c.Incoming = sg.Messages(i)
		c.Outgoing = rsc.outgoing[v.ID()]
		_ = sink.WriteVertexCapture(c)
	}

	_ = sink.WriteSubgraphCapture(&trace.SubgraphCapture{
		Superstep:    superstep,
		Worker:       worker,
		ID:           sg.ID(),
		Members:      memberIDs,
		Iterations:   rsc.iterations,
		MessagesSent: rsc.sent,
		HaltedAfter:  rsc.halted,
		Digest:       sg.ValuesDigest(),
	})
}

func cloneEdges(edges []pregel.Edge) []pregel.Edge {
	out := make([]pregel.Edge, len(edges))
	for i, e := range edges {
		out[i] = pregel.Edge{Target: e.Target, Value: pregel.CloneValue(e.Value)}
	}
	return out
}

// recordingSubgraphContext intercepts the subgraph context's sends (to
// check the message constraint and attribute outgoing messages to
// their sending member), halt votes, and iteration reports.
type recordingSubgraphContext struct {
	pregel.SubgraphContext
	g *Graft

	outgoing   map[pregel.VertexID][]trace.OutMsg
	violations []trace.Violation
	sent       int64
	iterations int64
	halted     bool
}

// SendMessage implements pregel.SubgraphContext. Like the vertex-mode
// recording context it clones at send time, before any combiner can
// mutate the value in the plane.
func (c *recordingSubgraphContext) SendMessage(from, to pregel.VertexID, msg pregel.Value) {
	g := c.g
	if g.cfg.MessageConstraint != nil &&
		!g.cfg.MessageConstraint(msg, from, to, c.SubgraphContext.Superstep()) {
		c.violations = append(c.violations, trace.Violation{
			Kind:  trace.MessageViolation,
			SrcID: from,
			DstID: to,
			Value: pregel.CloneValue(msg),
		})
	}
	if c.outgoing == nil {
		c.outgoing = map[pregel.VertexID][]trace.OutMsg{}
	}
	c.outgoing[from] = append(c.outgoing[from], trace.OutMsg{To: to, Value: pregel.CloneValue(msg)})
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
