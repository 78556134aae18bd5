package pregel

import (
	"fmt"
	"sort"
)

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

// assignTable is the explicit placement table partitionFor consults
// before falling back to the hash: locality placement writes it at
// load, checkpoint restore rebuilds it. Lookups must stay
// allocation-free — they sit on the send/load/mutation hot paths — so
// the table is a dense int32 slice over the ID range seen at build time
// (-1 = unset, fall through to hash) with a sparse map catching IDs
// outside that range (a restored table whose IDs are too scattered for
// a dense slice).
type assignTable struct {
	base   VertexID
	dense  []int32
	sparse map[VertexID]int32
	n      int // live entries across both representations
}

// newAssignTable returns an empty sparse-only table.
func newAssignTable() *assignTable { return &assignTable{} }

// newDenseAssignTable returns a table with a dense slice covering
// [lo, hi]; IDs outside the range overflow into the sparse map.
func newDenseAssignTable(lo, hi VertexID) *assignTable {
	t := &assignTable{base: lo, dense: make([]int32, hi-lo+1)}
	for i := range t.dense {
		t.dense[i] = -1
	}
	return t
}

// lookup returns the explicit assignment for id, if any. It performs
// no allocation: one bounds check against the dense slice, and a map
// probe only for out-of-range IDs.
func (t *assignTable) lookup(id VertexID) (int, bool) {
	if off := uint64(id - t.base); off < uint64(len(t.dense)) {
		if p := t.dense[off]; p >= 0 {
			return int(p), true
		}
		return 0, false
	}
	if t.sparse != nil {
		if p, ok := t.sparse[id]; ok {
			return int(p), true
		}
	}
	return 0, false
}

// set records an explicit assignment for id.
func (t *assignTable) set(id VertexID, p int) {
	if off := uint64(id - t.base); off < uint64(len(t.dense)) {
		if t.dense[off] < 0 {
			t.n++
		}
		t.dense[off] = int32(p)
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[VertexID]int32)
	}
	if _, ok := t.sparse[id]; !ok {
		t.n++
	}
	t.sparse[id] = int32(p)
}

// len returns the number of explicit assignments.
func (t *assignTable) len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// pairs returns every explicit assignment in ascending ID order, the
// canonical form checkpoints encode.
func (t *assignTable) pairs() ([]VertexID, []int) {
	ids := make([]VertexID, 0, t.n)
	for off, p := range t.dense {
		if p >= 0 {
			ids = append(ids, t.base+VertexID(off))
		}
	}
	for id := range t.sparse {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]int, len(ids))
	for i, id := range ids {
		p, _ := t.lookup(id)
		parts[i] = p
	}
	return ids, parts
}

// assignTableFromPairs rebuilds a table from decoded checkpoint pairs,
// choosing the dense representation when the ID range is at least 25%
// occupied so restored jobs keep the allocation-free fast path.
func assignTableFromPairs(ids []VertexID, parts []int) *assignTable {
	if len(ids) == 0 {
		return nil
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
	}
	var t *assignTable
	if span := uint64(hi-lo) + 1; span <= 4*uint64(len(ids)) {
		t = newDenseAssignTable(lo, hi)
	} else {
		t = newAssignTable()
	}
	for i, id := range ids {
		t.set(id, parts[i])
	}
	return t
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
// of g's vertices across numParts workers and returns the table of
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
func localityPlacement(g *Graph, numParts int) *assignTable {
	ids := g.VertexIDs()
	n := len(ids)
	if n == 0 || numParts <= 1 {
		return nil
	}
	idx := make(map[VertexID]int32, n)
	for i, id := range ids {
		idx[id] = int32(i)
	}
	// Undirected CSR adjacency: every edge contributes both directions,
	// so the placer sees in-neighbors too (a directed chain would
	// otherwise stream with zero placed neighbors at every step).
	deg := make([]int32, n)
	for i, id := range ids {
		for _, e := range g.vertices[id].edges {
			j, ok := idx[e.Target]
			if !ok || j == int32(i) {
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
	for i, id := range ids {
		for _, e := range g.vertices[id].edges {
			j, ok := idx[e.Target]
			if !ok || j == int32(i) {
				continue
			}
			adj[fill[i]] = j
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

	var t *assignTable
	for i, id := range ids {
		if int(placed[i]) == hashPartition(id, numParts) {
			continue
		}
		if t == nil {
			t = newDenseAssignTable(ids[0], ids[n-1])
		}
		t.set(id, int(placed[i]))
	}
	return t
}
