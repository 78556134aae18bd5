package repro

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"

	"graft/internal/algorithms"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// Outcome is the observable result of replaying one captured
// vertex.compute call.
type Outcome struct {
	// ValueAfter is the vertex value when compute returned.
	ValueAfter pregel.Value
	// Outgoing are the messages the replay sent.
	Outgoing []trace.OutMsg
	// Aggregated are the replay's Aggregate calls.
	Aggregated []trace.AggSet
	// HaltedAfter reports whether the replay voted to halt.
	HaltedAfter bool
	// Err is the error the replayed compute returned, nil on success.
	// A panic is converted to an error with PanicStack set.
	Err        error
	PanicStack string
}

// Replay re-executes comp against the captured context of vertex id at
// the given superstep. The capture's superstep metadata must be
// present in the DB (it always is for supersteps Graft observed).
func Replay(db *trace.Reader, superstep int, id pregel.VertexID, comp pregel.Computation) (*Outcome, error) {
	c := db.Capture(superstep, id)
	if c == nil {
		return nil, fmt.Errorf("repro: no capture of vertex %d at superstep %d", id, superstep)
	}
	meta, err := metaAt(db, superstep)
	if err != nil {
		return nil, err
	}
	return ReplayCapture(c, meta, comp), nil
}

// ReplayCapture re-executes comp against an explicit capture and
// superstep metadata.
func ReplayCapture(c *trace.VertexCapture, meta *trace.SuperstepMeta, comp pregel.Computation) *Outcome {
	ctx := NewMockContext(meta, c.Worker)
	v := RebuildVertex(c)
	msgs := RebuildIncoming(c)
	out := &Outcome{}
	out.PanicStack, out.Err = run(func() error { return comp.Compute(ctx, v, msgs) })
	out.ValueAfter = v.Value()
	out.Outgoing = ctx.Sent
	out.Aggregated = ctx.Aggregated
	out.HaltedAfter = v.Halted()
	return out
}

// Fidelity compares a replay outcome with what the original run
// recorded, returning human-readable differences (empty means the
// replay reproduced the cluster execution exactly). Messages are
// compared as multisets: the engine does not guarantee send order.
func Fidelity(c *trace.VertexCapture, out *Outcome) []string {
	var diffs []string
	if !pregel.ValuesEqual(c.ValueAfter, out.ValueAfter) {
		diffs = append(diffs, fmt.Sprintf("value after: captured %s, replayed %s",
			pregel.ValueString(c.ValueAfter), pregel.ValueString(out.ValueAfter)))
	}
	diffs = differ(diffs, "halted after", c.HaltedAfter, out.HaltedAfter)
	diffs = diffKeys(diffs, "outgoing", msgKeys(c.Outgoing), msgKeys(out.Outgoing))
	return differ(diffs, "exception", c.Exception != nil, out.Err != nil)
}

// ReplaySubgraph re-executes comp against the captured context of the
// component sc records: each member's recorded value, edges and inbox,
// rebuilt with pregel.NewDetachedSubgraph. It returns how the replay
// differs from the capture in what the generated subgraph test asserts
// — the members' values digest, the send count, the internal
// iterations and the halt vote — and in whether it raised. Empty means
// the replay reproduced the cluster execution.
func ReplaySubgraph(db *trace.Reader, sc *trace.SubgraphCapture, comp pregel.SubgraphComputation) ([]string, error) {
	meta, err := metaAt(db, sc.Superstep)
	if err != nil {
		return nil, err
	}
	members, err := memberCaptures(db, sc)
	if err != nil {
		return nil, err
	}
	vs := make([]*pregel.Vertex, len(members))
	inbox := make(map[pregel.VertexID][]pregel.Value, len(members))
	raised := false
	for i, c := range members {
		vs[i] = RebuildVertex(c)
		inbox[c.ID] = RebuildIncoming(c)
		raised = raised || c.Exception != nil
	}
	sg := pregel.NewDetachedSubgraph(vs, inbox)
	ctx := &MockSubgraphContext{MockBase: newMockBase(meta, sc.Worker)}
	_, err = run(func() error { return comp.ComputeSubgraph(ctx, sg) })
	diffs := differ(nil, "values digest", sc.Digest, sg.ValuesDigest())
	diffs = differ(diffs, "sent", sc.MessagesSent, int64(len(ctx.Sent)))
	diffs = differ(diffs, "iterations", sc.Iterations, ctx.Iterations)
	diffs = differ(diffs, "halted after", sc.HaltedAfter, ctx.HaltedNow)
	return differ(diffs, "exception", raised, err != nil), nil
}

// ReplayMaster re-executes a master computation against the captured
// context of superstep's master.compute and returns how the replay
// differs from the capture: its SetAggregated calls, in order, its halt
// and whether it raised. Empty means the replay reproduced the cluster
// execution.
func ReplayMaster(db *trace.Reader, superstep int, master pregel.MasterComputation) ([]string, error) {
	c := db.MasterAt(superstep)
	if c == nil {
		return nil, fmt.Errorf("repro: no master capture at superstep %d", superstep)
	}
	ctx := &MockMasterContext{MockBase: newMockBase(masterMeta(c), 0)}
	_, err := run(func() error { return master.Compute(ctx) })
	diffs := diffKeys(nil, "sets", setKeys(c.Sets), setKeys(ctx.Sets))
	diffs = differ(diffs, "halted", c.Halted, ctx.HaltedNow)
	return differ(diffs, "exception", c.Exception != nil, err != nil), nil
}

// Check is the replay check of one capture.
type Check struct {
	// Kind is "vertex", "subgraph" or "master".
	Kind      string
	Superstep int
	// ID is the vertex's or the subgraph's ID; 0 for the master.
	ID pregel.VertexID
	// Diffs lists how the replay differed from the capture, or why it
	// could not run; empty when it reproduced the cluster execution.
	Diffs []string
	// Nondeterministic reports that the capture already recorded a
	// compute that does not re-run the same way
	// (trace.ReasonNondeterministic).
	Nondeterministic bool
}

// CheckSuperstep replays every capture of one superstep with alg's
// computations: each vertex capture with Compute, or, in a
// subgraph-mode trace where the vertex captures are the members of
// captured components, each subgraph capture with Subgraph; then the
// master capture with Master. It returns one Check per capture, the
// master last.
func CheckSuperstep(db *trace.Reader, superstep int, alg *algorithms.Algorithm) []Check {
	var checks []Check
	add := func(kind string, id pregel.VertexID, flagged bool, diffs []string, err error) {
		if err != nil {
			diffs = append(diffs, err.Error())
		}
		checks = append(checks, Check{Kind: kind, Superstep: superstep, ID: id, Diffs: diffs, Nondeterministic: flagged})
	}
	if db.JobMeta().ComputeMode == "subgraph" {
		for _, sc := range db.SubgraphsAt(superstep) {
			diffs, err := ReplaySubgraph(db, sc, alg.Subgraph)
			add("subgraph", sc.ID, false, diffs, err)
		}
	} else if captures := db.CapturesAt(superstep); len(captures) > 0 {
		meta, err := metaAt(db, superstep)
		for _, c := range captures {
			var diffs []string
			if err == nil {
				diffs = Fidelity(c, ReplayCapture(c, meta, alg.Compute))
			}
			add("vertex", c.ID, c.Reasons.Has(trace.ReasonNondeterministic), diffs, err)
		}
	}
	if db.MasterAt(superstep) != nil {
		diffs, err := ReplayMaster(db, superstep, alg.Master)
		add("master", 0, false, diffs, err)
	}
	return checks
}

// CheckTrace runs CheckSuperstep over every superstep of db and returns
// the captures whose replay diverged, in superstep order. The error is
// the reader's: a trace that could not be read is not known to replay.
func CheckTrace(db *trace.Reader, alg *algorithms.Algorithm) ([]Check, error) {
	var diverged []Check
	// A master that halted the job or raised was captured at a superstep
	// that never started, so it has no metadata: the one after the last.
	for _, s := range append(slices.Clone(db.Supersteps()), db.MaxSuperstep()+1) {
		for _, c := range CheckSuperstep(db, s, alg) {
			if len(c.Diffs) > 0 {
				diverged = append(diverged, c)
			}
		}
	}
	return diverged, db.Err()
}

// run calls compute, converting a panic into an error and the stack it
// was raised on.
func run(compute func() error) (stack string, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack = string(debug.Stack())
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return "", compute()
}

// metaAt returns a superstep's metadata, which every vertex and
// subgraph replay needs.
func metaAt(db *trace.Reader, superstep int) (*trace.SuperstepMeta, error) {
	meta := db.MetaAt(superstep)
	if meta == nil {
		return nil, fmt.Errorf("repro: no superstep metadata for superstep %d", superstep)
	}
	return meta, nil
}

// masterMeta is the global data a master capture recorded, in the
// form the mock base is built from.
func masterMeta(c *trace.MasterCapture) *trace.SuperstepMeta {
	return &trace.SuperstepMeta{Superstep: c.Superstep, NumVertices: c.NumVertices,
		NumEdges: c.NumEdges, Aggregated: c.AggregatedBefore}
}

// memberCaptures fetches the vertex capture of every member of sc: the
// records a subgraph step is rebuilt from, by replay and by codegen.
func memberCaptures(db *trace.Reader, sc *trace.SubgraphCapture) ([]*trace.VertexCapture, error) {
	cs := make([]*trace.VertexCapture, len(sc.Members))
	for i, id := range sc.Members {
		if cs[i] = db.Capture(sc.Superstep, id); cs[i] == nil {
			return nil, fmt.Errorf("repro: subgraph %d at superstep %d: member %d has no vertex capture (capture limit hit?)",
				int64(sc.ID), sc.Superstep, int64(id))
		}
	}
	return cs, nil
}

// differ appends a difference when the captured and replayed values
// of what are not equal.
func differ[T comparable](diffs []string, what string, captured, replayed T) []string {
	if captured != replayed {
		diffs = append(diffs, fmt.Sprintf("%s: captured %v, replayed %v", what, captured, replayed))
	}
	return diffs
}

// diffKeys appends the first difference between two key lists.
func diffKeys(diffs []string, what string, captured, replayed []string) []string {
	if len(captured) != len(replayed) {
		return append(diffs, fmt.Sprintf("%s count: captured %d, replayed %d", what, len(captured), len(replayed)))
	}
	for i := range captured {
		if captured[i] != replayed[i] {
			return append(diffs, fmt.Sprintf("%s differ: captured %q, replayed %q", what, captured[i], replayed[i]))
		}
	}
	return diffs
}

// msgKeys keys messages by (recipient, encoded bytes), sorted: a
// multiset, since the engine does not guarantee send order.
func msgKeys(msgs []trace.OutMsg) []string {
	keys := make([]string, len(msgs))
	for i, m := range msgs {
		keys[i] = fmt.Sprintf("%d|%x", m.To, pregel.MarshalValue(m.Value))
	}
	sort.Strings(keys)
	return keys
}

// setKeys keys SetAggregated calls by (name, encoded bytes), in call
// order: a later call overrides an earlier one.
func setKeys(sets []trace.AggSet) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = fmt.Sprintf("%s|%x", s.Name, pregel.MarshalValue(s.Value))
	}
	return keys
}
