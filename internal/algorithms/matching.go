package algorithms

import (
	"fmt"

	"graft/internal/pregel"
)

// Approximate maximum-weight matching (the paper's MWM algorithm,
// §4.3, after Preis's 1/2-approximation): in each round every
// unmatched vertex points at its maximum-weight remaining neighbor; if
// two vertices point at each other the edge joins the matching and
// both vertices (with their incident edges) leave the graph. Rounds
// repeat until no vertices remain.
//
// On a correctly symmetric undirected graph the globally heaviest
// remaining edge is always mutual, so every round makes progress. If
// some symmetric edge pair carries different weights on its two
// directions — the input-graph corruption the paper's third scenario
// plants — preferences can cycle and the algorithm loops forever,
// surfacing as pregel.ReasonMaxSupersteps.
//
// Phases alternate by superstep parity: even = PROPOSE (drop edges to
// vertices that left, then point at the max-weight neighbor), odd =
// MATCH (mutual proposals match, leave the graph and notify
// neighbors).

// MWMValue is the matching vertex value: the matched partner, or -1.
type MWMValue struct {
	MatchedTo pregel.VertexID
	Matched   bool
}

func (*MWMValue) TypeName() string { return "mwm-value" }

func (v *MWMValue) Encode(e *pregel.Encoder) {
	e.PutVarint(int64(v.MatchedTo))
	e.PutBool(v.Matched)
}

func (v *MWMValue) Decode(d *pregel.Decoder) error {
	v.MatchedTo = pregel.VertexID(d.Varint())
	v.Matched = d.Bool()
	return d.Err()
}

func (v *MWMValue) Clone() pregel.Value { c := *v; return &c }

func (v *MWMValue) String() string {
	if v.Matched {
		return fmt.Sprintf("MATCHED(%d)", v.MatchedTo)
	}
	return "UNMATCHED"
}

// MWM message types.
const (
	MWMMsgPropose uint8 = iota
	MWMMsgRemoved
)

// MWMMessage is a proposal or a departure notification.
type MWMMessage struct {
	Type uint8
	From pregel.VertexID
}

func (*MWMMessage) TypeName() string { return "mwm-msg" }

func (m *MWMMessage) Encode(e *pregel.Encoder) {
	e.PutUvarint(uint64(m.Type))
	e.PutVarint(int64(m.From))
}

func (m *MWMMessage) Decode(d *pregel.Decoder) error {
	m.Type = uint8(d.UvarintBits(8))
	m.From = pregel.VertexID(d.Varint())
	return d.Err()
}

func (m *MWMMessage) Clone() pregel.Value { c := *m; return &c }

func (m *MWMMessage) String() string {
	if m.Type == MWMMsgPropose {
		return fmt.Sprintf("PROPOSE(%d)", m.From)
	}
	return fmt.Sprintf("REMOVED(%d)", m.From)
}

// NewMaximumWeightMatching returns the MWM algorithm. maxSupersteps
// bounds non-converging runs (corrupted inputs); the paper's scenario
// relies on hitting it.
func NewMaximumWeightMatching(maxSupersteps int) *Algorithm {
	return &Algorithm{
		Name:          "mwm",
		Compute:       pregel.ComputeFunc(mwmCompute),
		MaxSupersteps: maxSupersteps,
	}
}

func mwmValueOf(v *pregel.Vertex) *MWMValue {
	if val, ok := v.Value().(*MWMValue); ok {
		return val
	}
	val := &MWMValue{MatchedTo: -1}
	v.SetValue(val)
	return val
}

// maxWeightNeighbor returns the deterministic pointing target: the
// maximum-weight edge, ties broken toward the smaller vertex ID.
func maxWeightNeighbor(v *pregel.Vertex) (pregel.VertexID, bool) {
	best := pregel.VertexID(-1)
	bestW := 0.0
	found := false
	for _, e := range v.Edges() {
		w := 1.0
		if dv, ok := e.Value.(*pregel.DoubleValue); ok {
			w = dv.Get()
		}
		if !found || w > bestW || (w == bestW && e.Target < best) {
			best, bestW, found = e.Target, w, true
		}
	}
	return best, found
}

func mwmCompute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	val := mwmValueOf(v)
	if val.Matched {
		v.VoteToHalt()
		return nil
	}
	if ctx.Superstep()%2 == 0 {
		// PROPOSE phase: first drop edges to vertices that left the
		// graph last round.
		for _, m := range msgs {
			if mm := m.(*MWMMessage); mm.Type == MWMMsgRemoved {
				v.RemoveEdges(mm.From)
			}
		}
		target, ok := maxWeightNeighbor(v)
		if !ok {
			// No partners remain; leave the graph unmatched.
			ctx.RemoveVertexRequest(v.ID())
			v.VoteToHalt()
			return nil
		}
		ctx.SendMessage(target, &MWMMessage{Type: MWMMsgPropose, From: v.ID()})
		return nil
	}
	// MATCH phase: mutual proposals match.
	target, ok := maxWeightNeighbor(v)
	if !ok {
		return nil
	}
	for _, m := range msgs {
		mm := m.(*MWMMessage)
		if mm.Type == MWMMsgPropose && mm.From == target {
			val.MatchedTo = target
			val.Matched = true
			ctx.SendMessageToAllEdges(v, &MWMMessage{Type: MWMMsgRemoved, From: v.ID()})
			ctx.RemoveVertexRequest(v.ID())
			v.VoteToHalt()
			return nil
		}
	}
	return nil
}
