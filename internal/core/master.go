package core

import (
	"graft/internal/pregel"
	"graft/internal/trace"
)

// instrumentedMaster wraps the user's master computation, capturing
// its context every observed superstep (paper §3.4: "Graft
// automatically captures its context — just the aggregator values — in
// every superstep").
type instrumentedMaster struct {
	g    *Graft
	user pregel.MasterComputation
}

// Compute implements pregel.MasterComputation.
func (im *instrumentedMaster) Compute(ctx pregel.MasterContext) error {
	g := im.g
	if !g.cfg.observes(ctx.Superstep()) {
		return im.user.Compute(ctx)
	}

	before := snapshotAggregated(ctx)
	rec := &recordingMasterContext{MasterContext: ctx}
	exc, err := guard(func() error { return im.user.Compute(rec) })

	cap := &trace.MasterCapture{
		Superstep:        ctx.Superstep(),
		NumVertices:      ctx.TotalNumVertices(),
		NumEdges:         ctx.TotalNumEdges(),
		AggregatedBefore: before,
		AggregatedAfter:  snapshotAggregated(ctx),
		Sets:             rec.sets,
		Halted:           rec.halted,
		Exception:        exc,
	}
	_ = g.masterSink.WriteMasterCapture(cap) // sink owns drop accounting
	return err
}

// snapshotAggregated clones every registered aggregator's current
// value.
func snapshotAggregated(ctx pregel.MasterContext) map[string]pregel.Value {
	names := ctx.AggregatedNames()
	m := make(map[string]pregel.Value, len(names))
	for _, name := range names {
		m[name] = pregel.CloneValue(ctx.GetAggregated(name))
	}
	return m
}

// recordingMasterContext remembers SetAggregated and HaltComputation
// calls so the master capture records the master's decisions.
type recordingMasterContext struct {
	pregel.MasterContext
	sets   []trace.AggSet
	halted bool
}

// SetAggregated implements pregel.MasterContext.
func (c *recordingMasterContext) SetAggregated(name string, val pregel.Value) {
	c.sets = append(c.sets, trace.AggSet{Name: name, Value: pregel.CloneValue(val)})
	c.MasterContext.SetAggregated(name, val)
}

// HaltComputation implements pregel.MasterContext.
func (c *recordingMasterContext) HaltComputation() {
	c.halted = true
	c.MasterContext.HaltComputation()
}
