package pregel

import (
	"fmt"
	"math/rand"
	"testing"

	"graft/internal/dfs"
)

// clusteredGraph builds `clusters` dense undirected clusters of `per`
// vertices each, neighbors drawn inside the cluster, with one bridge
// edge chaining consecutive clusters — community structure the
// locality placer can exploit and hashing cannot.
func clusteredGraph(t testing.TB, clusters, per int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	n := clusters * per
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	addBoth := func(a, b VertexID) {
		if a == b || g.Vertex(a).HasEdge(b) {
			return
		}
		if err := g.AddUndirectedEdge(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < clusters; c++ {
		lo := c * per
		for i := lo + 1; i < lo+per; i++ {
			for k := 0; k < 3; k++ {
				addBoth(VertexID(i), VertexID(lo+rng.Intn(i-lo)))
			}
		}
		if c > 0 {
			addBoth(VertexID(lo-1), VertexID(lo))
		}
	}
	g.SortAllEdges()
	return g
}

func TestHashPartitionMatchesFibonacciFormula(t *testing.T) {
	for _, k := range []int{1, 2, 7, 16} {
		for _, id := range []VertexID{0, 1, 42, 1 << 20, 1<<40 + 3} {
			h := uint64(id) * 0x9E3779B97F4A7C15
			if got, want := hashPartition(id, k), int(h%uint64(k)); got != want {
				t.Fatalf("hashPartition(%d, %d) = %d, want %d", id, k, got, want)
			}
		}
	}
}

func TestLocalityPlacementDeterministicAndBalanced(t *testing.T) {
	g := clusteredGraph(t, 16, 40, 9)
	const k = 4
	a := localityPlacement(g, g.VertexIDs(), k)
	b := localityPlacement(g, g.VertexIDs(), k)
	if a == nil || b == nil {
		t.Fatal("locality placement returned nil on a clustered graph")
	}
	aIDs, aParts := a.pairs()
	bIDs, bParts := b.pairs()
	if len(aIDs) != len(bIDs) {
		t.Fatalf("placement not deterministic: %d vs %d divergent entries", len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] || aParts[i] != bParts[i] {
			t.Fatalf("placement not deterministic at entry %d: (%d,%d) vs (%d,%d)",
				i, aIDs[i], aParts[i], bIDs[i], bParts[i])
		}
	}

	// Balance: no partition may exceed the streaming capacity bound.
	sizes := make([]int, k)
	g.Each(func(v *Vertex) {
		p, ok := a.lookup(v.ID())
		if !ok {
			p = hashPartition(v.ID(), k)
		}
		if p < 0 || p >= k {
			t.Fatalf("vertex %d placed on partition %d of %d", v.ID(), p, k)
		}
		sizes[p]++
	})
	capacity := int(float64(g.NumVertices())/float64(k)*(1+localitySlack)) + 1
	for p, n := range sizes {
		if n > capacity {
			t.Fatalf("partition %d holds %d vertices, capacity %d", p, n, capacity)
		}
		if n == 0 {
			t.Fatalf("partition %d is empty", p)
		}
	}
}

// TestLocalityPlacementReducesEdgeCut runs the same CC job under both
// placements: results must digest identically while the locality run
// finishes with a strictly smaller edge cut.
func TestLocalityPlacementReducesEdgeCut(t *testing.T) {
	run := func(p PartitionerMode) (*Stats, string) {
		g := clusteredGraph(t, 16, 40, 9)
		stats, err := NewJob(g, ccCompute, Config{
			NumWorkers:  4,
			Partitioner: p,
			Combiner:    MinLongCombiner,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, g.ValuesDigest()
	}
	hashStats, hashDigest := run(PartitionHash)
	locStats, locDigest := run(PartitionLocality)
	if hashDigest != locDigest {
		t.Fatalf("values diverged across placements:\nhash:     %s\nlocality: %s", hashDigest, locDigest)
	}
	if locStats.Partitioner != PartitionLocality || hashStats.Partitioner != PartitionHash {
		t.Fatalf("stats partitioner labels: hash=%v locality=%v", hashStats.Partitioner, locStats.Partitioner)
	}
	if len(locStats.PartitionSizes) != 4 {
		t.Fatalf("PartitionSizes = %v, want 4 entries", locStats.PartitionSizes)
	}
	if locStats.EdgeCut >= hashStats.EdgeCut {
		t.Fatalf("locality edge cut %d not below hash edge cut %d", locStats.EdgeCut, hashStats.EdgeCut)
	}
	if hashStats.LocalMessageRatio() >= locStats.LocalMessageRatio() {
		t.Fatalf("local-message ratio did not improve: hash %.3f, locality %.3f",
			hashStats.LocalMessageRatio(), locStats.LocalMessageRatio())
	}
	// The placer's communication claim: at least 30% of the cross-worker
	// messages gone (74,629 → 4,046 here).
	remote := func(s *Stats) int64 { tot := s.Totals(); return tot.MessagesSent - tot.LocalMessages }
	if 10*remote(locStats) > 7*remote(hashStats) {
		t.Fatalf("locality sent %d cross-worker messages, more than 0.7x hash's %d",
			remote(locStats), remote(hashStats))
	}
}

// TestCheckpointRestoresLocalityAssignments crashes a locality-placed
// job after a checkpoint: recovery must restore the assignment table
// exactly, so the run lands on the same values and the same final
// partition sizes as an uninterrupted one.
func TestCheckpointRestoresLocalityAssignments(t *testing.T) {
	run := func(crashAt int) (*Stats, string) {
		g := clusteredGraph(t, 16, 40, 9)
		cfg := Config{
			NumWorkers:      4,
			Partitioner:     PartitionLocality,
			CheckpointEvery: 2,
			CheckpointFS:    dfs.NewMemFS(),
			Combiner:        MinLongCombiner,
		}
		if crashAt >= 0 {
			crashed := false
			cfg.FailureAt = func(superstep int) bool {
				if superstep == crashAt && !crashed {
					crashed = true
					return true
				}
				return false
			}
		}
		stats, err := NewJob(g, ccCompute, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, g.ValuesDigest()
	}
	cleanStats, cleanDigest := run(-1)
	crashStats, crashDigest := run(3)
	if crashStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", crashStats.Recoveries)
	}
	if crashDigest != cleanDigest {
		t.Fatalf("values diverged after recovery:\nclean:   %s\ncrashed: %s", cleanDigest, crashDigest)
	}
	if fmt.Sprint(crashStats.PartitionSizes) != fmt.Sprint(cleanStats.PartitionSizes) {
		t.Fatalf("partition sizes diverged after recovery: clean %v, crashed %v",
			cleanStats.PartitionSizes, crashStats.PartitionSizes)
	}
}

// BenchmarkPartitionFor measures the routing hot path: the stateless
// hash, a dense assignment-table hit, a dense miss falling through to
// the hash, and a sparse-overflow hit. The placement subsystem rides on
// this lookup staying allocation-free.
func BenchmarkPartitionFor(b *testing.B) {
	const k = 8
	en := &engine{parts: make([]*partition, k)}
	ids := make([]VertexID, 4096)
	for i := range ids {
		ids[i] = VertexID(i * 3)
	}

	bench := func(name string, setup func()) {
		b.Run(name, func(b *testing.B) {
			setup()
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += en.partitionFor(ids[i&4095])
			}
			_ = sink
		})
	}

	bench("hash-only", func() { en.assign = nil })
	bench("assign-dense-hit", func() {
		en.assign = newIDTable(0, ids[len(ids)-1], len(ids))
		for _, id := range ids {
			en.assign.set(id, int(id)%k)
		}
	})
	bench("assign-dense-miss", func() {
		// The dense range covers the IDs but holds no entries, so every
		// lookup misses and falls through to the hash.
		en.assign = newIDTable(0, ids[len(ids)-1], len(ids))
	})
	bench("assign-sparse-hit", func() {
		// A table whose IDs are too scattered for a dense range keeps
		// everything in the map.
		en.assign = newIDTable(0, ids[len(ids)-1], 1)
		for _, id := range ids {
			en.assign.set(id, int(id)%k)
		}
	})
}
