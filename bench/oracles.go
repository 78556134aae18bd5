package main

import (
	"fmt"
	"math"

	"graft/internal/algorithms"
	"graft/internal/pregel"
)

// The oracles recompute each workload's answer sequentially over plain
// slices, from the graph as the generator made it (not as graphio read
// it back, and with no engine code), so a wrong result in graphio,
// pregel or an algorithm shows as a mismatch.

// adjacency flattens g into per-vertex target lists. The generators
// number vertices 0..n-1.
func adjacency(g *pregel.Graph) ([][]int32, error) {
	ids := g.VertexIDs()
	adj := make([][]int32, len(ids))
	for i, id := range ids {
		if int(id) != i {
			return nil, fmt.Errorf("oracle: vertex IDs are not 0..n-1 (position %d holds %d)", i, id)
		}
		edges := g.Vertex(id).Edges()
		adj[i] = make([]int32, len(edges))
		for k, e := range edges {
			adj[i][k] = int32(e.Target)
		}
	}
	return adj, nil
}

// pageRankOracle is synchronous PageRank with dangling mass spread
// uniformly, the recurrence algorithms.NewPageRank implements.
func pageRankOracle(adj [][]int32, iterations int, damping float64) []float64 {
	n := float64(len(adj))
	rank := make([]float64, len(adj))
	for i := range rank {
		rank[i] = 1 / n
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, len(adj))
		var dangling float64
		for u, out := range adj {
			if len(out) == 0 {
				dangling += rank[u]
				continue
			}
			share := rank[u] / float64(len(out))
			for _, v := range out {
				next[v] += share
			}
		}
		for v := range next {
			next[v] = (1-damping)/n + damping*(next[v]+dangling/n)
		}
		rank = next
	}
	return rank
}

func checkPageRank(input, result *pregel.Graph, iterations int, damping float64) error {
	adj, err := adjacency(input)
	if err != nil {
		return err
	}
	want := pageRankOracle(adj, iterations, damping)
	if int(result.NumVertices()) != len(want) {
		return fmt.Errorf("oracle: pagerank: %d vertices, want %d", result.NumVertices(), len(want))
	}
	for i, w := range want {
		got, ok := result.Vertex(pregel.VertexID(i)).Value().(*pregel.DoubleValue)
		if !ok {
			return fmt.Errorf("oracle: pagerank: vertex %d has no rank", i)
		}
		if d := math.Abs(got.Get() - w); !(d < 1e-9) {
			return fmt.Errorf("oracle: pagerank: vertex %d rank %g, want %g", i, got.Get(), w)
		}
	}
	return nil
}

// bfsHops returns hop distances from source (-1 when unreachable) and
// the largest one.
func bfsHops(adj [][]int32, source int) (dist []int32, maxHops int32) {
	dist = make([]int32, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := []int32{int32(source)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				maxHops = dist[v]
				queue = append(queue, v)
			}
		}
	}
	return dist, maxHops
}

// checkSSSP compares the job's distances over unweighted edges with
// BFS hop counts, and its superstep count with the one the frontier
// implies: one superstep per hop, one for the source and one in which
// the last frontier's messages improve nothing.
func checkSSSP(input, result *pregel.Graph, source int, supersteps int) error {
	adj, err := adjacency(input)
	if err != nil {
		return err
	}
	dist, maxHops := bfsHops(adj, source)
	for i, d := range dist {
		got, ok := result.Vertex(pregel.VertexID(i)).Value().(*pregel.DoubleValue)
		if !ok {
			return fmt.Errorf("oracle: sssp: vertex %d has no distance", i)
		}
		want := float64(d)
		if d < 0 {
			want = math.Inf(1)
		}
		if got.Get() != want {
			return fmt.Errorf("oracle: sssp: vertex %d distance %g, want %g", i, got.Get(), want)
		}
	}
	if want := int(maxHops) + 2; supersteps != want {
		return fmt.Errorf("oracle: sssp: %d supersteps, want %d", supersteps, want)
	}
	return nil
}

// checkColoring verifies a proper colouring: every vertex coloured and
// no edge joining equal colours.
func checkColoring(input, result *pregel.Graph) error {
	adj, err := adjacency(input)
	if err != nil {
		return err
	}
	color := make([]int32, len(adj))
	for i := range adj {
		val, ok := result.Vertex(pregel.VertexID(i)).Value().(*algorithms.GCValue)
		if !ok || val.Color < 0 {
			return fmt.Errorf("oracle: coloring: vertex %d is not coloured", i)
		}
		color[i] = val.Color
	}
	for u, out := range adj {
		for _, v := range out {
			if color[u] == color[v] {
				return fmt.Errorf("oracle: coloring: edge %d-%d joins colour %d", u, v, color[u])
			}
		}
	}
	return nil
}
