// Package graphgen generates the synthetic datasets that stand in for
// the paper's graphs (Tables 1 and 2). The originals (web-BS,
// soc-Epinions, sk-2005, twitter) are external corpora; the evaluation
// only needs their shapes — skewed web/social degree distributions,
// exact 3-regular bipartite structure, and weighted undirected graphs
// with a planted fraction of asymmetric weights — so seeded generators
// reproduce those shapes at configurable scale.
package graphgen

import (
	"math/rand"

	"graft/internal/pregel"
)

// WebGraph generates a directed graph with a heavy-tailed in-degree
// distribution via preferential attachment, standing in for web crawls
// (web-BS, sk-2005). Vertex 0 is a "funnel": it accumulates a large
// share of in-links but has a single out-edge, the hub shape that
// makes the random-walk scenario's 16-bit counters overflow.
func WebGraph(n int, avgOutDeg int, seed int64) *pregel.Graph {
	if n < 2 {
		n = 2
	}
	if avgOutDeg < 1 {
		avgOutDeg = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// targets holds one entry per received edge, so sampling from it
	// is preferential attachment.
	targets := make([]pregel.VertexID, 0, n*avgOutDeg)
	targets = append(targets, 0, 1)
	src := make([]pregel.VertexID, 0, n*avgOutDeg)
	dst := make([]pregel.VertexID, 0, n*avgOutDeg)
	addEdge := func(from, to pregel.VertexID) {
		if from == to {
			return
		}
		src, dst = append(src, from), append(dst, to)
		targets = append(targets, to)
	}
	// The funnel: vertex 0 links only to vertex 1.
	addEdge(0, 1)
	for i := 1; i < n; i++ {
		from := pregel.VertexID(i)
		deg := 1 + rng.Intn(2*avgOutDeg-1) // mean avgOutDeg
		for k := 0; k < deg; k++ {
			var to pregel.VertexID
			if rng.Float64() < 0.25 {
				// A quarter of links go to the funnel, concentrating
				// walkers there.
				to = 0
			} else {
				to = targets[rng.Intn(len(targets))]
			}
			addEdge(from, to)
		}
		// The new vertex joins the target pool so later vertices can
		// link to it — without this every draw collapses onto the seed
		// pair {0, 1} and the "web" degenerates into a two-hub star.
		targets = append(targets, from)
	}
	g := pregel.NewGraphFromEdges(sequence(n), src, dst, nil)
	g.SortAllEdges()
	return g
}

// sequence returns the vertex IDs 0 .. n-1.
func sequence(n int) []pregel.VertexID {
	ids := make([]pregel.VertexID, n)
	for i := range ids {
		ids[i] = pregel.VertexID(i)
	}
	return ids
}

// WebHostGraph generates a directed web graph with host-level link
// locality, the structure that dominates real crawls (web-BS,
// sk-2005): pages of one host occupy a contiguous ID block (crawl
// order), intraFrac of each page's out-links stay on its own host
// (uniform over its earlier pages), and the rest follow global
// preferential attachment — the heavy-tailed hub structure of
// WebGraph. Host sizes are exponentially distributed around avgHost,
// so a few large hosts coexist with many small ones.
//
// WebGraph's pure preferential attachment has no community structure
// at all, so no placement can beat hashing on it by much; real web
// graphs are ~80% intra-host, which is exactly what locality-aware
// partitioning exploits. The partition experiments use this generator
// for that reason.
func WebHostGraph(n, avgHost, avgOutDeg int, intraFrac float64, seed int64) *pregel.Graph {
	if n < 2 {
		n = 2
	}
	if avgHost < 1 {
		avgHost = 1
	}
	if avgOutDeg < 1 {
		avgOutDeg = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	// global holds one entry per received global link plus one per
	// page, so sampling from it is preferential attachment.
	global := []pregel.VertexID{0}
	addEdge := func(from, to pregel.VertexID) {
		if from != to {
			g.Vertex(from).AddEdge(pregel.Edge{Target: to})
		}
	}
	for lo := 0; lo < n; {
		size := 1 + int(rng.ExpFloat64()*float64(avgHost))
		hi := lo + size
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			from := pregel.VertexID(i)
			if i > 0 {
				deg := 1 + rng.Intn(2*avgOutDeg-1) // mean avgOutDeg
				for k := 0; k < deg; k++ {
					if i > lo && rng.Float64() < intraFrac {
						addEdge(from, pregel.VertexID(lo+rng.Intn(i-lo)))
					} else {
						to := global[rng.Intn(len(global))]
						addEdge(from, to)
						global = append(global, to)
					}
				}
			}
			global = append(global, from)
		}
		lo = hi
	}
	g.SortAllEdges()
	return g
}

// SocialGraph generates an undirected weighted graph standing in for
// the soc-Epinions trust network: preferential attachment for the
// heavy tail, symmetric directed edges, uniform random weights in
// (0, 1].
func SocialGraph(n int, avgDeg int, seed int64) *pregel.Graph {
	if n < 2 {
		n = 2
	}
	if avgDeg < 2 {
		avgDeg = 2
	}
	rng := rand.New(rand.NewSource(seed))
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	targets := []pregel.VertexID{0}
	for i := 1; i < n; i++ {
		a := pregel.VertexID(i)
		deg := 1 + rng.Intn(avgDeg-1)
		for k := 0; k < deg; k++ {
			b := targets[rng.Intn(len(targets))]
			if a == b || g.Vertex(a).HasEdge(b) {
				continue
			}
			w := rng.Float64() + 1.0/float64(n) // avoid exact zero
			g.Vertex(a).AddEdge(pregel.Edge{Target: b, Value: pregel.NewDouble(w)})
			g.Vertex(b).AddEdge(pregel.Edge{Target: a, Value: pregel.NewDouble(w)})
			targets = append(targets, b)
		}
		targets = append(targets, a)
	}
	g.SortAllEdges()
	return g
}

// RegularBipartite generates an undirected d-regular bipartite graph
// with n vertices (n/2 per side), the bipartite-1M-3M /
// bipartite-2B-6B stand-in. Left vertex i connects to right vertices
// (i+k) mod half for k in [0, d): a circulant construction, so every
// vertex has degree exactly d.
func RegularBipartite(n, d int) *pregel.Graph {
	half := n / 2
	if half < 1 {
		half = 1
	}
	if d > half {
		d = half
	}
	src := make([]pregel.VertexID, 0, 2*half*max(d, 0))
	dst := make([]pregel.VertexID, 0, 2*half*max(d, 0))
	for i := 0; i < half; i++ {
		left := pregel.VertexID(i)
		for k := 0; k < d; k++ {
			right := pregel.VertexID(half + (i+k)%half)
			src, dst = append(src, left, right), append(dst, right, left)
		}
	}
	g := pregel.NewGraphFromEdges(sequence(2*half), src, dst, nil)
	g.SortAllEdges()
	return g
}

// ChainedCommunities generates an undirected graph of `communities`
// dense preferential-attachment clusters linked in a chain by single
// bridge edges. Label-propagation algorithms (connected components)
// need about one superstep per hop, so the diameter — and with it the
// superstep count — scales with the chain length regardless of total
// size: the long-running, everyone-connected workload the recovery
// experiments need.
func ChainedCommunities(n, communities, avgDeg int, seed int64) *pregel.Graph {
	if communities < 1 {
		communities = 1
	}
	if n < 2*communities {
		n = 2 * communities
	}
	if avgDeg < 2 {
		avgDeg = 2
	}
	rng := rand.New(rand.NewSource(seed))
	g := pregel.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	addBoth := func(a, b pregel.VertexID) {
		if a == b || g.Vertex(a).HasEdge(b) {
			return
		}
		g.Vertex(a).AddEdge(pregel.Edge{Target: b})
		g.Vertex(b).AddEdge(pregel.Edge{Target: a})
	}
	per := n / communities
	for c := 0; c < communities; c++ {
		lo := c * per
		hi := lo + per
		if c == communities-1 {
			hi = n
		}
		// Preferential attachment within the community.
		targets := []pregel.VertexID{pregel.VertexID(lo)}
		for i := lo + 1; i < hi; i++ {
			a := pregel.VertexID(i)
			deg := 1 + rng.Intn(avgDeg-1)
			for k := 0; k < deg; k++ {
				addBoth(a, targets[rng.Intn(len(targets))])
			}
			targets = append(targets, a)
		}
		// One bridge to the previous community: the chain.
		if c > 0 {
			addBoth(pregel.VertexID(lo-1), pregel.VertexID(lo))
		}
	}
	g.SortAllEdges()
	return g
}

// CorruptWeights makes approximately frac of the undirected edges
// asymmetric by perturbing the weight of one direction — the
// input-graph error of the paper's §4.3 scenario ("a small fraction of
// the edges incorrectly have different weights on their symmetric
// edges"). It returns the number of corrupted edge pairs.
func CorruptWeights(g *pregel.Graph, frac float64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	corrupted := 0
	for _, id := range g.VertexIDs() {
		v := g.Vertex(id)
		for _, e := range v.Edges() {
			if e.Target <= id { // visit each undirected pair once
				continue
			}
			if rng.Float64() >= frac {
				continue
			}
			w, ok := e.Value.(*pregel.DoubleValue)
			if !ok {
				continue
			}
			// Perturb the reverse direction only.
			rev := g.Vertex(e.Target)
			if rev != nil && rev.SetEdgeValue(id, pregel.NewDouble(w.Get()*(0.25+rng.Float64()))) {
				corrupted++
			}
		}
	}
	return corrupted
}

// PlantPreferenceCycle appends three fresh vertices forming a triangle
// whose weights rotate asymmetrically: each vertex's maximum-weight
// neighbor is the next one around the cycle, so maximum-weight
// matching livelocks on them forever. This guarantees the §4.3
// "infinite loop" symptom deterministically; random corruption alone
// only sometimes produces such a cycle. It returns the three new IDs.
func PlantPreferenceCycle(g *pregel.Graph) [3]pregel.VertexID {
	base := pregel.VertexID(0)
	for _, id := range g.VertexIDs() {
		if id >= base {
			base = id + 1
		}
	}
	ids := [3]pregel.VertexID{base, base + 1, base + 2}
	for _, id := range ids {
		g.AddVertex(id, nil)
	}
	// Directed weights: a prefers b (10 vs 1), b prefers c, c prefers a.
	high, low := 10.0, 1.0
	for i := 0; i < 3; i++ {
		a, b := g.Vertex(ids[i]), ids[(i+1)%3]
		c := ids[(i+2)%3]
		a.AddEdge(pregel.Edge{Target: b, Value: pregel.NewDouble(high)})
		a.AddEdge(pregel.Edge{Target: c, Value: pregel.NewDouble(low)})
	}
	g.SortAllEdges()
	return ids
}
