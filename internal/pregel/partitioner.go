package pregel

import "fmt"

// PartitionerMode selects the initial vertex-placement strategy.
type PartitionerMode int

const (
	// PartitionHash is Fibonacci hashing, the default: placement is a
	// pure function of the vertex ID, byte-compatible with every run
	// before the placement subsystem existed. Spreads consecutive IDs
	// evenly but scatters neighborhoods across workers.
	PartitionHash PartitionerMode = iota
	// PartitionLocality is the streaming locality-aware placer
	// (LDG/Fennel-style greedy): vertices are streamed in ID order and
	// each goes to the worker already holding the most of its
	// neighbors, penalized by a capacity term so load stays balanced.
	// Placement is recorded in an explicit assignment table consulted
	// by partitionFor and persisted through checkpoints, so recovery
	// stays consistent.
	PartitionLocality
)

func (m PartitionerMode) String() string {
	switch m {
	case PartitionHash:
		return "hash"
	case PartitionLocality:
		return "locality"
	}
	return fmt.Sprintf("PartitionerMode(%d)", int(m))
}

// hashPartition is the default placement: Fibonacci hashing keeps
// consecutive IDs (the common case for generated graphs) spread evenly.
func hashPartition(id VertexID, numParts int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return int(h % uint64(numParts))
}

// localitySlack is the fractional headroom the locality placer allows
// over the perfectly balanced partition size n/k. A little slack lets
// a community finish filling the partition that holds its neighbors
// instead of splitting at an arbitrary capacity boundary.
const localitySlack = 0.05

// localityRestreamPasses is how many times the placer re-streams the
// vertex sequence after the initial pass. On the first pass an early
// vertex is placed blind (its neighbors are mostly unplaced);
// restreaming re-places every vertex with the full neighborhood known
// from the previous pass — the standard ReLDG refinement, deterministic
// and O(E) per pass.
const localityRestreamPasses = 2

// localityPlacement computes the streaming locality-aware assignment
// of vs, in ascending ID order with idx mapping each ID to its position
// (Graph.ordered), across numParts workers and returns the table of
// assignments that differ from the hash placement (nil when nothing
// diverges, so hash-equivalent graphs keep the nil fast path).
//
// The stream visits vertices in ascending ID order. Each vertex scores
// every partition by the number of already-placed neighbors there
// (both edge directions, so chains place contiguously regardless of
// orientation), scaled by the LDG balance penalty 1 - load/capacity;
// ties break toward the lighter then lower-indexed partition, and a
// vertex with no placed neighbors goes to the least-loaded partition.
// Everything is deterministic: same graph, same placement, every run.
func localityPlacement(vs []*Vertex, idx *idTable, numParts int) *idTable {
	n := len(vs)
	if n == 0 || numParts <= 1 {
		return nil
	}
	// Undirected CSR adjacency: every edge contributes both directions,
	// so the placer sees in-neighbors too (a directed chain would
	// otherwise stream with zero placed neighbors at every step).
	deg := make([]int32, n)
	for i, v := range vs {
		for _, e := range v.edges {
			j, ok := idx.lookup(e.Target)
			if !ok || j == i {
				continue
			}
			deg[i]++
			deg[j]++
		}
	}
	off := make([]int, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + int(deg[i])
	}
	adj := make([]int32, off[n])
	fill := make([]int, n)
	copy(fill, off[:n])
	for i, v := range vs {
		for _, e := range v.edges {
			j, ok := idx.lookup(e.Target)
			if !ok || j == i {
				continue
			}
			adj[fill[i]] = int32(j)
			adj[fill[j]] = int32(i)
			fill[i]++
			fill[j]++
		}
	}

	capacity := int(float64(n)/float64(numParts)*(1+localitySlack)) + 1
	capF := float64(capacity)
	placed := make([]int32, n)
	for i := range placed {
		placed[i] = -1
	}
	load := make([]int, numParts)
	counts := make([]int, numParts)
	touched := make([]int, 0, numParts)

	for pass := 0; pass <= localityRestreamPasses; pass++ {
		for p := range load {
			load[p] = 0
		}
		for i := 0; i < n; i++ {
			for _, p := range touched {
				counts[p] = 0
			}
			touched = touched[:0]
			for _, j := range adj[off[i]:off[i+1]] {
				p := placed[j]
				if p < 0 {
					continue
				}
				if counts[p] == 0 {
					touched = append(touched, int(p))
				}
				counts[p]++
			}
			best, bestLoad := -1, 0
			var bestScore float64
			for p := 0; p < numParts; p++ {
				if load[p] >= capacity {
					continue
				}
				score := float64(counts[p]) * (1 - float64(load[p])/capF)
				if best < 0 || score > bestScore ||
					(score == bestScore && (load[p] < bestLoad || (load[p] == bestLoad && p < best))) {
					best, bestScore, bestLoad = p, score, load[p]
				}
			}
			if best < 0 {
				// Every partition at capacity (can only happen on the
				// last few vertices of a pass): least-loaded wins.
				for p := 0; p < numParts; p++ {
					if best < 0 || load[p] < load[best] {
						best = p
					}
				}
			}
			placed[i] = int32(best)
			load[best]++
		}
	}

	var t *idTable
	for i, v := range vs {
		if int(placed[i]) == hashPartition(v.id, numParts) {
			continue
		}
		if t == nil {
			t = newIDTable(vs[0].id, vs[n-1].id, n)
		}
		t.set(v.id, int(placed[i]))
	}
	return t
}
