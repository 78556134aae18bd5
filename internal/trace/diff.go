package trace

import (
	"fmt"
	"sort"

	"graft/internal/pregel"
)

// Trace diffing compares two jobs' captures — typically a buggy run
// against a fixed run over the same input and DebugConfig — and
// reports where the executions diverge: the first superstep at which a
// commonly captured vertex's outcome differs is usually where the bug
// acted.

// CaptureDivergence is one (vertex, superstep) where both jobs
// captured the vertex but its outcomes differ.
type CaptureDivergence struct {
	Superstep int
	ID        pregel.VertexID
	// Fields lists what differs: "value-after", "halted", "outgoing",
	// "exception".
	Fields []string
	A, B   *VertexCapture
}

// JobDiff summarizes the comparison of two traces.
type JobDiff struct {
	// OnlyA / OnlyB list vertices captured in one job but never in the
	// other (different capture sets or different dynamic triggers).
	OnlyA, OnlyB []pregel.VertexID
	// Divergences are ordered by (superstep, vertex).
	Divergences []CaptureDivergence
	// StatusDiffs lists supersteps whose M/V/E status differs.
	StatusDiffs []int
}

// FirstDivergence returns the earliest divergence, or nil.
func (d *JobDiff) FirstDivergence() *CaptureDivergence {
	if len(d.Divergences) == 0 {
		return nil
	}
	return &d.Divergences[0]
}

// DiffJobs compares the captures of two trace views.
func DiffJobs(a, b View) *JobDiff {
	diff := &JobDiff{}
	aIDs := a.CapturedVertexIDs()
	bIDs := b.CapturedVertexIDs()
	bSet := make(map[pregel.VertexID]bool, len(bIDs))
	for _, id := range bIDs {
		bSet[id] = true
	}
	aSet := make(map[pregel.VertexID]bool, len(aIDs))
	for _, id := range aIDs {
		aSet[id] = true
		if !bSet[id] {
			diff.OnlyA = append(diff.OnlyA, id)
		}
	}
	for _, id := range bIDs {
		if !aSet[id] {
			diff.OnlyB = append(diff.OnlyB, id)
		}
	}

	// Walk the union of supersteps in order.
	steps := map[int]bool{}
	for _, s := range a.Supersteps() {
		steps[s] = true
	}
	for _, s := range b.Supersteps() {
		steps[s] = true
	}
	ordered := make([]int, 0, len(steps))
	for s := range steps {
		ordered = append(ordered, s)
	}
	sort.Ints(ordered)

	for _, s := range ordered {
		if a.StatusAt(s) != b.StatusAt(s) {
			diff.StatusDiffs = append(diff.StatusDiffs, s)
		}
		for _, ca := range a.CapturesAt(s) {
			cb := b.Capture(s, ca.ID)
			if cb == nil {
				continue
			}
			if fields := divergentFields(ca, cb); len(fields) > 0 {
				diff.Divergences = append(diff.Divergences, CaptureDivergence{
					Superstep: s, ID: ca.ID, Fields: fields, A: ca, B: cb,
				})
			}
		}
	}
	return diff
}

func divergentFields(a, b *VertexCapture) []string {
	var fields []string
	if !pregel.ValuesEqual(a.ValueAfter, b.ValueAfter) {
		fields = append(fields, "value-after")
	}
	if a.HaltedAfter != b.HaltedAfter {
		fields = append(fields, "halted")
	}
	if !sameOutgoing(a.Outgoing, b.Outgoing) {
		fields = append(fields, "outgoing")
	}
	if (a.Exception != nil) != (b.Exception != nil) {
		fields = append(fields, "exception")
	}
	return fields
}

// sameOutgoing compares message multisets by (recipient, bytes).
func sameOutgoing(a, b []OutMsg) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(ms []OutMsg) []string {
		keys := make([]string, len(ms))
		for i, m := range ms {
			keys[i] = fmt.Sprintf("%d|%x", m.To, pregel.MarshalValue(m.Value))
		}
		sort.Strings(keys)
		return keys
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
