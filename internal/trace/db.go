package trace

import (
	"strings"

	"graft/internal/pregel"
)

// This file holds what the Reader's views are computed with: violation
// rows, the M/V/E status fold, search matching and the post-hoc pair
// check.

// findMemberSubgraph resolves a non-ID member to its subgraph capture.
func findMemberSubgraph(caps []*SubgraphCapture, id pregel.VertexID) *SubgraphCapture {
	for _, c := range caps {
		for _, m := range c.Members {
			if m == id {
				return c
			}
		}
	}
	return nil
}

// ViolationRow is one row of the Violations and Exceptions view.
type ViolationRow struct {
	Superstep int
	VertexID  pregel.VertexID
	// Kind is the violation kind, or "exception".
	Kind string
	// Detail is the offending value rendered for display, or the
	// exception message.
	Detail string
	// DstID is the message recipient for message violations, else the
	// vertex itself.
	DstID pregel.VertexID
	Stack string // exception stack, if any
}

// ViolationRows builds the Violations view rows from one superstep's
// captures, in the captures' order: what ViolationsAt returns, for a
// caller that already holds the superstep's CapturesAt.
func ViolationRows(superstep int, caps []*VertexCapture) []ViolationRow {
	var rows []ViolationRow
	for _, c := range caps {
		for _, v := range c.Violations {
			rows = append(rows, ViolationRow{
				Superstep: superstep,
				VertexID:  c.ID,
				Kind:      v.Kind.String(),
				Detail:    pregel.ValueString(v.Value),
				DstID:     v.DstID,
			})
		}
		if c.Exception != nil {
			rows = append(rows, ViolationRow{
				Superstep: superstep,
				VertexID:  c.ID,
				Kind:      "exception",
				Detail:    c.Exception.Message,
				DstID:     c.ID,
				Stack:     c.Exception.Stack,
			})
		}
	}
	return rows
}

// Status is the state of the GUI's M/V/E boxes for one superstep:
// false means green (no violation), true means red.
type Status struct {
	MessageViolation bool // M
	VertexViolation  bool // V
	Exception        bool // E
}

// StatusOf folds one superstep's captures into the M/V/E boxes: what
// StatusAt returns, for a caller that already holds the superstep's
// CapturesAt.
func StatusOf(caps []*VertexCapture) Status {
	var st Status
	for _, c := range caps {
		for _, v := range c.Violations {
			switch v.Kind {
			case MessageViolation, IncomingMessageViolation:
				st.MessageViolation = true
			case VertexValueViolation:
				st.VertexViolation = true
			}
		}
		if c.Exception != nil {
			st.Exception = true
		}
	}
	return st
}

// PairViolation reports two adjacent captured vertices whose contexts
// jointly violate a pairwise predicate in the same superstep — the
// "no two adjacent vertices should be assigned the same color" class
// of constraint the paper lists as future work (§7). It is evaluated
// post hoc over the trace, where both contexts are available.
type PairViolation struct {
	Superstep int
	A, B      *VertexCapture
}

// CheckAdjacentPairs evaluates ok over every ordered-once pair of
// captured vertices (a, b) where a has an edge to b and both were
// captured in the same superstep, returning the violating pairs. Use
// CaptureAllActive (or by-ID with neighbors) to make the check
// complete over the region of interest. The Reader loads each
// superstep's segments once per pass.
func CheckAdjacentPairs(v View, ok func(a, b *VertexCapture) bool) []PairViolation {
	var out []PairViolation
	for _, s := range v.Supersteps() {
		m := make(map[pregel.VertexID]*VertexCapture)
		for _, c := range v.CapturesAt(s) {
			m[c.ID] = c
		}
		for _, a := range v.CapturesAt(s) {
			for _, e := range a.Edges {
				if e.Target <= a.ID {
					continue // each undirected pair once
				}
				b, captured := m[e.Target]
				if !captured {
					continue
				}
				if !ok(a, b) {
					out = append(out, PairViolation{Superstep: s, A: a, B: b})
				}
			}
		}
	}
	return out
}

// Query selects captures for the Tabular view's search box. Zero
// fields match everything; set fields are ANDed.
type Query struct {
	// Superstep restricts to one superstep when >= 0. Use -1 for all.
	Superstep int
	// VertexID matches one vertex exactly when non-nil.
	VertexID *pregel.VertexID
	// NeighborID matches vertices with an out-edge to this ID.
	NeighborID *pregel.VertexID
	// ValueContains substring-matches the display form of the vertex
	// value (before or after).
	ValueContains string
	// MessageContains substring-matches any incoming or outgoing
	// message's display form.
	MessageContains string
}

func (q Query) matches(c *VertexCapture) bool {
	if q.VertexID != nil && c.ID != *q.VertexID {
		return false
	}
	if q.NeighborID != nil {
		found := false
		for _, e := range c.Edges {
			if e.Target == *q.NeighborID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if q.ValueContains != "" {
		if !strings.Contains(pregel.ValueString(c.ValueBefore), q.ValueContains) &&
			!strings.Contains(pregel.ValueString(c.ValueAfter), q.ValueContains) {
			return false
		}
	}
	if q.MessageContains != "" {
		found := false
		for _, m := range c.Incoming {
			if strings.Contains(pregel.ValueString(m), q.MessageContains) {
				found = true
				break
			}
		}
		if !found {
			for _, m := range c.Outgoing {
				if strings.Contains(pregel.ValueString(m.Value), q.MessageContains) {
					found = true
					break
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}
