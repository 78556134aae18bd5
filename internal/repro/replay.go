package repro

import (
	"fmt"
	"runtime/debug"
	"sort"

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
	meta := db.MetaAt(superstep)
	if meta == nil {
		return nil, fmt.Errorf("repro: no superstep metadata for superstep %d", superstep)
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
	out.Err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				out.PanicStack = string(debug.Stack())
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return comp.Compute(ctx, v, msgs)
	}()
	out.ValueAfter = v.Value()
	out.Outgoing = ctx.Sent
	out.Aggregated = ctx.Aggregated
	out.HaltedAfter = v.Halted()
	return out
}

// ReplayMaster re-executes a master computation against its captured
// context.
func ReplayMaster(db *trace.Reader, superstep int, master pregel.MasterComputation) (*MockMasterContext, error) {
	c := db.MasterAt(superstep)
	if c == nil {
		return nil, fmt.Errorf("repro: no master capture at superstep %d", superstep)
	}
	ctx := NewMockMasterContext(c)
	if err := master.Compute(ctx); err != nil {
		return ctx, err
	}
	return ctx, nil
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
	if c.HaltedAfter != out.HaltedAfter {
		diffs = append(diffs, fmt.Sprintf("halted after: captured %v, replayed %v",
			c.HaltedAfter, out.HaltedAfter))
	}
	if d := diffOutgoing(c.Outgoing, out.Outgoing); d != "" {
		diffs = append(diffs, d)
	}
	capturedErr := c.Exception != nil
	replayErr := out.Err != nil
	if capturedErr != replayErr {
		diffs = append(diffs, fmt.Sprintf("exception: captured %v, replayed %v", capturedErr, replayErr))
	}
	return diffs
}

// diffOutgoing compares two message sets order-insensitively by
// (recipient, encoded bytes).
func diffOutgoing(a, b []trace.OutMsg) string {
	if len(a) != len(b) {
		return fmt.Sprintf("outgoing count: captured %d, replayed %d", len(a), len(b))
	}
	ka, kb := msgKeys(a), msgKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("outgoing messages differ: captured %q, replayed %q", ka[i], kb[i])
		}
	}
	return ""
}

func msgKeys(msgs []trace.OutMsg) []string {
	keys := make([]string, len(msgs))
	for i, m := range msgs {
		keys[i] = fmt.Sprintf("%d|%x", m.To, pregel.MarshalValue(m.Value))
	}
	sort.Strings(keys)
	return keys
}
