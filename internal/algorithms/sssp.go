package algorithms

import (
	"math"

	"graft/internal/pregel"
)

// NewSSSP returns single-source shortest paths from source over
// DoubleValue edge weights (unweighted edges count 1). Unreachable
// vertices end with +Inf.
func NewSSSP(source pregel.VertexID) *Algorithm {
	return &Algorithm{
		Name:     "sssp",
		Compute:  &sssp{source: source},
		Combiner: pregel.MinDoubleCombiner,
	}
}

type sssp struct {
	source pregel.VertexID
}

// Compute implements pregel.Computation.
func (s *sssp) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	if ctx.Superstep() == 0 { // a fresh box: input vertices may share one value object
		v.SetValue(pregel.NewDouble(math.Inf(1)))
	}
	val := v.Value().(*pregel.DoubleValue)
	min := val.Get()
	if ctx.Superstep() == 0 && v.ID() == s.source {
		min = 0
	}
	for _, m := range msgs {
		if d := m.(*pregel.DoubleValue).Get(); d < min {
			min = d
		}
	}
	if min < val.Get() || (ctx.Superstep() == 0 && min == 0) {
		val.Set(min)
		for _, e := range v.Edges() {
			w := 1.0
			if dv, ok := e.Value.(*pregel.DoubleValue); ok {
				w = dv.Get()
			}
			ctx.SendMessage(e.Target, pregel.NewDouble(min+w))
		}
	}
	v.VoteToHalt()
	return nil
}
