package algorithms

// This file holds the subgraph-mode (GoFFish-style) ports of the
// traversal algorithms: a sequential pass over each weakly-connected
// component of a partition per superstep, with boundary messages at
// the barrier. The BFS and WCC ports are value-equivalent to their
// vertex-centric counterparts — same final vertex values,
// digest-checked in the tests and benches — but converge in
// O(partitions crossed) supersteps instead of O(graph diameter).

import (
	"graft/internal/pregel"
)

// wccSubgraph is subgraph-mode weakly-connected components: at
// superstep 0 every component collapses to its minimum member ID in
// one sequential pass (work vertex mode spreads over the component's
// diameter in supersteps), then components exchange labels over
// boundary edges until no label shrinks. Run it on a symmetrized graph,
// like its vertex counterpart.
func wccSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	if ctx.Superstep() == 0 {
		label := int64(sg.ID())
		for _, v := range sg.Members() {
			v.SetValue(pregel.NewLong(label))
		}
		sendBoundaryLong(ctx, sg, label)
		ctx.AddIterations(1)
		ctx.VoteToHalt()
		return nil
	}
	// Members can hold different labels after a topology mutation
	// merged two components, so fold the minimum over member labels and
	// incoming messages rather than assuming a shared label.
	min := sg.Member(0).Value().(*pregel.LongValue).Get()
	for i, v := range sg.Members() {
		if x := v.Value().(*pregel.LongValue).Get(); x < min {
			min = x
		}
		for _, m := range sg.Messages(i) {
			if x := m.(*pregel.LongValue).Get(); x < min {
				min = x
			}
		}
	}
	changed := false
	for _, v := range sg.Members() {
		if v.Value().(*pregel.LongValue).Get() != min {
			v.SetValue(pregel.NewLong(min))
			changed = true
		}
	}
	if changed {
		sendBoundaryLong(ctx, sg, min)
		ctx.AddIterations(1)
	}
	ctx.VoteToHalt()
	return nil
}

// sendBoundaryLong broadcasts label over every boundary edge of the
// subgraph, attributed to the member owning the edge.
func sendBoundaryLong(ctx pregel.SubgraphContext, sg *pregel.Subgraph, label int64) {
	for _, v := range sg.Members() {
		for _, e := range v.Edges() {
			if !sg.Has(e.Target) {
				ctx.SendMessage(v.ID(), e.Target, pregel.NewLong(label))
			}
		}
	}
}

// bfsSubgraph is subgraph-mode BFS: each superstep runs a sequential
// label-correcting relaxation to fixpoint inside the component
// (directed intra-partition edges), then sends improved frontiers over
// boundary edges. Distances converge to the same shortest-path
// fixpoint as vertex-mode BFS in as many supersteps as the maximum
// number of partition-boundary crossings along a shortest path — far
// fewer when the partitioning respects locality, every internal hop
// being free.
type bfsSubgraph struct {
	source pregel.VertexID
}

// ComputeSubgraph implements pregel.SubgraphComputation.
func (b *bfsSubgraph) ComputeSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	n := sg.NumMembers()
	old := make([]int64, n)
	dist := make([]int64, n)
	if ctx.Superstep() == 0 {
		for i, v := range sg.Members() {
			old[i] = -1
			if v.ID() == b.source {
				dist[i] = 0
			} else {
				dist[i] = -1
			}
		}
	} else {
		for i, v := range sg.Members() {
			old[i] = v.Value().(*pregel.LongValue).Get()
			dist[i] = old[i]
			for _, m := range sg.Messages(i) {
				if d := m.(*pregel.LongValue).Get(); dist[i] < 0 || d < dist[i] {
					dist[i] = d
				}
			}
		}
	}
	// Relax intra-subgraph edges to fixpoint with a worklist seeded by
	// the members whose distance just improved: a superstep costs
	// O(frontier expanded), not O(component), so late supersteps with a
	// thin frontier stay cheap even in giant components. The fixpoint is
	// unique regardless of relaxation order, and the FIFO order over the
	// sorted member seeds is deterministic.
	members := sg.Members()
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	for i := range members {
		if dist[i] >= 0 && dist[i] != old[i] {
			queue = append(queue, i)
			inQueue[i] = true
		}
	}
	pops := int64(0)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		pops++
		for _, e := range members[i].Edges() {
			if j, ok := sg.Index(e.Target); ok {
				if dist[j] < 0 || dist[i]+1 < dist[j] {
					dist[j] = dist[i] + 1
					if !inQueue[j] {
						queue = append(queue, j)
						inQueue[j] = true
					}
				}
			}
		}
	}
	ctx.AddIterations(pops)
	for i, v := range sg.Members() {
		if ctx.Superstep() == 0 || dist[i] != old[i] {
			v.SetValue(pregel.NewLong(dist[i]))
		}
		if dist[i] != old[i] && dist[i] >= 0 {
			for _, e := range v.Edges() {
				if !sg.Has(e.Target) {
					ctx.SendMessage(v.ID(), e.Target, pregel.NewLong(dist[i]+1))
				}
			}
		}
	}
	ctx.VoteToHalt()
	return nil
}

// pageRankInnerSweeps is how many local Jacobi sweeps the subgraph
// PageRank runs per superstep: internal contributions refresh every
// sweep while boundary contributions stay fixed at the barrier's
// messages (block-Jacobi iteration).
const pageRankInnerSweeps = 5

// newPageRankSubgraph builds the subgraph-mode PageRank companion for
// a vertex run of the given iteration count: the same total sweep
// budget packed into iterations/pageRankInnerSweeps supersteps.
func newPageRankSubgraph(iterations int, damping float64) *pageRankSubgraph {
	outer := (iterations + pageRankInnerSweeps - 1) / pageRankInnerSweeps
	if outer < 1 {
		outer = 1
	}
	return &pageRankSubgraph{outer: outer, inner: pageRankInnerSweeps, damping: damping}
}

type pageRankSubgraph struct {
	outer   int
	inner   int
	damping float64
}

// ComputeSubgraph implements pregel.SubgraphComputation.
func (pr *pageRankSubgraph) ComputeSubgraph(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	n := float64(ctx.TotalNumVertices())
	s := ctx.Superstep()
	members := sg.Members()
	rank := make([]float64, len(members))
	if s == 0 {
		for i := range rank {
			rank[i] = 1 / n
		}
	} else {
		// External contributions are fixed for the whole superstep; the
		// inner sweeps refresh only intra-component flow.
		ext := make([]float64, len(members))
		for i := range members {
			for _, m := range sg.Messages(i) {
				ext[i] += m.(*pregel.DoubleValue).Get()
			}
			rank[i] = members[i].Value().(*pregel.DoubleValue).Get()
		}
		dangling := ctx.GetAggregated("dangling").(*pregel.DoubleValue).Get()
		// Internal in-edge lists, rebuilt per call: member topology can
		// change between supersteps (mutations).
		inEdges := make([][]int, len(members))
		outDeg := make([]int, len(members))
		for i, v := range members {
			outDeg[i] = v.NumEdges()
			for _, e := range v.Edges() {
				if j, ok := sg.Index(e.Target); ok {
					inEdges[j] = append(inEdges[j], i)
				}
			}
		}
		next := make([]float64, len(members))
		for it := 0; it < pr.inner; it++ {
			for j := range members {
				var sum float64
				for _, i := range inEdges[j] {
					sum += rank[i] / float64(outDeg[i])
				}
				next[j] = (1-pr.damping)/n + pr.damping*(ext[j]+sum+dangling/n)
			}
			rank, next = next, rank
		}
		ctx.AddIterations(int64(pr.inner))
	}
	for i, v := range members {
		v.SetValue(pregel.NewDouble(rank[i]))
	}
	if s < pr.outer {
		for i, v := range members {
			if d := v.NumEdges(); d > 0 {
				for _, e := range v.Edges() {
					if !sg.Has(e.Target) {
						ctx.SendMessage(v.ID(), e.Target, pregel.NewDouble(rank[i]/float64(d)))
					}
				}
			} else {
				ctx.Aggregate("dangling", pregel.NewDouble(rank[i]))
			}
		}
		return nil
	}
	ctx.VoteToHalt()
	return nil
}
