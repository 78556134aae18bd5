package algorithms

import (
	"fmt"

	"graft/internal/pregel"
)

// Graph coloring via iterated maximal independent sets (the paper's GC
// algorithm, §4.1, after Gebremedhin-Manne and Salihoglu-Widom): each
// round finds a maximal independent set (MIS) of the still-uncolored
// subgraph with Luby-style random priorities, assigns its members the
// round's color, removes them, and repeats until every vertex is
// colored. master.compute coordinates the phases through the "phase"
// aggregator, exactly the pattern Figure 6 of the paper shows
// ("CONFLICT-RESOLUTION", TENTATIVELY_IN_SET, NBR_IN_SET).
//
// The buggy variant reproduces the §4.1 defect: its conflict
// resolution compares priorities with >= and no vertex-ID tiebreak, so
// two adjacent vertices that draw the same (deliberately coarse)
// priority both enter the MIS and receive the same color.

// GC phases, broadcast through the "phase" TextOverwrite aggregator.
const (
	GCPhaseSelection          = "SELECTION"
	GCPhaseConflictResolution = "CONFLICT-RESOLUTION"
	GCPhaseUpdate             = "UPDATE"
	GCPhaseRoundEnd           = "ROUND-END"
)

// GC vertex states.
type GCState uint8

const (
	GCUndecided GCState = iota
	GCTentativelyInSet
	GCInSet
	GCNotInSet
	GCColored
)

func (s GCState) String() string {
	switch s {
	case GCUndecided:
		return "UNDECIDED"
	case GCTentativelyInSet:
		return "TENTATIVELY_IN_SET"
	case GCInSet:
		return "IN_SET"
	case GCNotInSet:
		return "NOT_IN_SET"
	case GCColored:
		return "COLORED"
	}
	return fmt.Sprintf("GCState(%d)", uint8(s))
}

// GCValue is the graph-coloring vertex value: the assigned color (-1
// until colored) and the per-round state.
type GCValue struct {
	Color int32
	State GCState
	// Priority is the vertex's current-round random priority, kept so
	// the GUI can show why a vertex won or lost selection.
	Priority uint64
}

func init() {
	pregel.RegisterValue("gc-value", func() pregel.Value { return new(GCValue) })
	pregel.RegisterValue("gc-msg", func() pregel.Value { return new(GCMessage) })
	pregel.RegisterValue("mwm-value", func() pregel.Value { return new(MWMValue) })
	pregel.RegisterValue("mwm-msg", func() pregel.Value { return new(MWMMessage) })
	pregel.RegisterValue("rw-msg", func() pregel.Value { return new(RWMessage) })
}

func (*GCValue) TypeName() string { return "gc-value" }

func (g *GCValue) Encode(e *pregel.Encoder) {
	e.PutVarint(int64(g.Color))
	e.PutUvarint(uint64(g.State))
	e.PutUvarint(g.Priority)
}

func (g *GCValue) Decode(d *pregel.Decoder) error {
	g.Color = int32(d.VarintBits(32))
	g.State = GCState(d.UvarintBits(8))
	g.Priority = d.Uvarint()
	return d.Err()
}

func (g *GCValue) Clone() pregel.Value { c := *g; return &c }

func (g *GCValue) String() string {
	if g.State == GCColored {
		return fmt.Sprintf("COLORED(%d)", g.Color)
	}
	return g.State.String()
}

// GC message types.
const (
	GCMsgPriority uint8 = iota
	GCMsgNbrInSet
)

// GCMessage carries a neighbor's priority during selection, or the
// NBR_IN_SET notification after a neighbor joins the MIS.
type GCMessage struct {
	Type     uint8
	From     pregel.VertexID
	Priority uint64
}

func (*GCMessage) TypeName() string { return "gc-msg" }

func (m *GCMessage) Encode(e *pregel.Encoder) {
	e.PutUvarint(uint64(m.Type))
	e.PutVarint(int64(m.From))
	e.PutUvarint(m.Priority)
}

func (m *GCMessage) Decode(d *pregel.Decoder) error {
	m.Type = uint8(d.UvarintBits(8))
	m.From = pregel.VertexID(d.Varint())
	m.Priority = d.Uvarint()
	return d.Err()
}

func (m *GCMessage) Clone() pregel.Value { c := *m; return &c }

func (m *GCMessage) String() string {
	if m.Type == GCMsgNbrInSet {
		return fmt.Sprintf("NBR_IN_SET(%d)", m.From)
	}
	return fmt.Sprintf("PRIORITY(%d, %d)", m.From, m.Priority)
}

// NewGraphColoring returns the correct GC algorithm.
func NewGraphColoring(seed int64) *Algorithm { return newGC(seed, false) }

// NewBuggyGraphColoring returns the §4.1 buggy GC: adjacent vertices
// with equal priorities both join the MIS and get the same color.
func NewBuggyGraphColoring(seed int64) *Algorithm { return newGC(seed, true) }

func newGC(seed int64, buggy bool) *Algorithm {
	name := "gc"
	if buggy {
		name = "gc-buggy"
	}
	return &Algorithm{
		Name:    name,
		Compute: &gcCompute{seed: seed, buggy: buggy},
		Master:  &gcMaster{},
		Aggregators: []AggregatorSpec{
			{Name: "phase", Agg: pregel.TextOverwriteAggregator{}, Persistent: true},
			{Name: "color", Agg: pregel.LongOverwriteAggregator{}, Persistent: true},
			{Name: "undecided", Agg: pregel.LongSumAggregator{}, Persistent: false},
			{Name: "uncolored", Agg: pregel.LongSumAggregator{}, Persistent: false},
		},
		// Each round takes a handful of phase supersteps; even
		// adversarial graphs finish far below this.
		MaxSupersteps: 100000,
	}
}

// buggyPriorityRange makes priority collisions common in the buggy
// variant, so the planted defect actually fires on modest graphs.
const buggyPriorityRange = 8

type gcCompute struct {
	seed  int64
	buggy bool
}

func (gc *gcCompute) value(v *pregel.Vertex) *GCValue {
	if val, ok := v.Value().(*GCValue); ok {
		return val
	}
	val := &GCValue{Color: -1, State: GCUndecided}
	v.SetValue(val)
	return val
}

// Compute implements pregel.Computation.
func (gc *gcCompute) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	val := gc.value(v)
	if val.State == GCColored {
		// A straggler NBR_IN_SET message woke us; nothing to do.
		v.VoteToHalt()
		return nil
	}
	phase := ctx.GetAggregated("phase").(*pregel.TextValue).Get()
	switch phase {
	case GCPhaseSelection:
		ctx.Aggregate("uncolored", pregel.NewLong(1))
		if val.State != GCUndecided {
			return nil // NOT_IN_SET this round: sit out
		}
		p := VertexRand(gc.seed, int64(v.ID()), ctx.Superstep(), 1)
		if gc.buggy {
			p %= buggyPriorityRange
		}
		val.State = GCTentativelyInSet
		val.Priority = p
		ctx.SendMessageToAllEdges(v, &GCMessage{Type: GCMsgPriority, From: v.ID(), Priority: p})

	case GCPhaseConflictResolution:
		if val.State != GCTentativelyInSet {
			return nil
		}
		win := true
		for _, m := range msgs {
			gm := m.(*GCMessage)
			if gm.Type != GCMsgPriority {
				continue
			}
			if gc.buggy {
				// BUG: ties are not broken, so two adjacent vertices
				// with equal priority both think they win.
				if gm.Priority > val.Priority {
					win = false
				}
			} else {
				if gm.Priority > val.Priority ||
					(gm.Priority == val.Priority && gm.From > v.ID()) {
					win = false
				}
			}
		}
		if win {
			val.State = GCInSet
			ctx.SendMessageToAllEdges(v, &GCMessage{Type: GCMsgNbrInSet, From: v.ID()})
		} else {
			val.State = GCUndecided
		}

	case GCPhaseUpdate:
		switch val.State {
		case GCInSet:
			val.Color = int32(ctx.GetAggregated("color").(*pregel.LongValue).Get())
			val.State = GCColored
			v.VoteToHalt()
			return nil
		case GCUndecided:
			for _, m := range msgs {
				if gm := m.(*GCMessage); gm.Type == GCMsgNbrInSet {
					val.State = GCNotInSet
					break
				}
			}
			if val.State == GCUndecided {
				ctx.Aggregate("undecided", pregel.NewLong(1))
			}
		}

	case GCPhaseRoundEnd:
		if val.State == GCNotInSet {
			val.State = GCUndecided
		}
	}
	return nil
}

// gcMaster drives the phase cycle and terminates the job when every
// vertex is colored.
type gcMaster struct{}

// Compute implements pregel.MasterComputation.
func (m *gcMaster) Compute(ctx pregel.MasterContext) error {
	if ctx.Superstep() == 0 {
		ctx.SetAggregated("phase", pregel.NewText(GCPhaseSelection))
		ctx.SetAggregated("color", pregel.NewLong(0))
		return nil
	}
	prev := ctx.GetAggregated("phase").(*pregel.TextValue).Get()
	switch prev {
	case GCPhaseSelection:
		ctx.SetAggregated("phase", pregel.NewText(GCPhaseConflictResolution))
	case GCPhaseConflictResolution:
		ctx.SetAggregated("phase", pregel.NewText(GCPhaseUpdate))
	case GCPhaseUpdate:
		undecided := ctx.GetAggregated("undecided").(*pregel.LongValue).Get()
		if undecided > 0 {
			ctx.SetAggregated("phase", pregel.NewText(GCPhaseSelection))
			return nil
		}
		ctx.SetAggregated("phase", pregel.NewText(GCPhaseRoundEnd))
		color := ctx.GetAggregated("color").(*pregel.LongValue).Get()
		ctx.SetAggregated("color", pregel.NewLong(color+1))
	case GCPhaseRoundEnd:
		ctx.SetAggregated("phase", pregel.NewText(GCPhaseSelection))
	}
	return nil
}
