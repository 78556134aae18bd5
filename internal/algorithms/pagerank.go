package algorithms

import (
	"graft/internal/pregel"
)

// DefaultDamping is the standard PageRank damping factor.
const DefaultDamping = 0.85

// NewPageRank returns the classic synchronous PageRank over a directed
// graph, run for a fixed number of iterations. Dangling vertices
// redistribute their rank uniformly through the "dangling" aggregator,
// so total rank is conserved at 1.
func NewPageRank(iterations int, damping float64) *Algorithm {
	if damping <= 0 || damping >= 1 {
		damping = DefaultDamping
	}
	pr := &pageRank{iterations: iterations, damping: damping}
	return &Algorithm{
		Name:     "pagerank",
		Compute:  pr,
		Subgraph: newPageRankSubgraph(iterations, damping),
		Combiner: pregel.SumDoubleCombiner,
		Aggregators: []AggregatorSpec{
			{Name: "dangling", Agg: pregel.DoubleSumAggregator{}, Persistent: false},
		},
		MaxSupersteps: iterations + 2,
	}
}

type pageRank struct {
	iterations int
	damping    float64
}

// Compute implements pregel.Computation.
func (pr *pageRank) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	n := float64(ctx.TotalNumVertices())
	s := ctx.Superstep()
	rank := 1 / n
	if s == 0 { // a fresh box: input vertices may share one value object
		v.SetValue(pregel.NewDouble(rank))
	} else {
		var sum float64
		for _, m := range msgs {
			sum += m.(*pregel.DoubleValue).Get()
		}
		dangling := ctx.GetAggregated("dangling").(*pregel.DoubleValue).Get()
		rank = (1-pr.damping)/n + pr.damping*(sum+dangling/n)
		v.Value().(*pregel.DoubleValue).Set(rank)
	}
	if s < pr.iterations {
		if d := v.NumEdges(); d > 0 {
			ctx.SendMessageToAllEdges(v, pregel.NewDouble(rank/float64(d)))
		} else {
			ctx.Aggregate("dangling", pregel.NewDouble(rank))
		}
		return nil
	}
	v.VoteToHalt()
	return nil
}
