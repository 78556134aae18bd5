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
// locality placer can exploit and hashing cannot, with a diameter that
// keeps label propagation running long enough for the rebalancer.
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

func TestAssignTableDenseAndSparse(t *testing.T) {
	if _, ok := newAssignTable().lookup(5); ok {
		t.Fatal("empty table reported a hit")
	}
	// The covered ID range lives in the dense array.
	tbl := newDenseAssignTable(100, 139)
	for id := VertexID(100); id < 140; id++ {
		tbl.set(id, int(id)%4)
	}
	// An ID outside the range lands in the sparse overflow.
	tbl.set(1<<40, 3)
	tbl.set(1<<40, 2) // overwrite must not double-count
	if got := tbl.len(); got != 41 {
		t.Fatalf("len = %d, want 41", got)
	}
	for id := VertexID(100); id < 140; id++ {
		if p, ok := tbl.lookup(id); !ok || p != int(id)%4 {
			t.Fatalf("lookup(%d) = %d,%v; want %d,true", id, p, ok, int(id)%4)
		}
	}
	if p, ok := tbl.lookup(1 << 40); !ok || p != 2 {
		t.Fatalf("sparse lookup = %d,%v; want 2,true", p, ok)
	}
	if _, ok := tbl.lookup(99); ok {
		t.Fatal("lookup(99) hit; want miss")
	}
	if _, ok := tbl.lookup(1<<40 + 1); ok {
		t.Fatal("lookup far miss hit")
	}

	// pairs() must come back sorted and survive the checkpoint-shaped
	// roundtrip exactly.
	ids, parts := tbl.pairs()
	if len(ids) != tbl.len() {
		t.Fatalf("pairs returned %d entries, table holds %d", len(ids), tbl.len())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("pairs not sorted: ids[%d]=%d >= ids[%d]=%d", i-1, ids[i-1], i, ids[i])
		}
	}
	back := assignTableFromPairs(ids, parts)
	for i, id := range ids {
		if p, ok := back.lookup(id); !ok || p != parts[i] {
			t.Fatalf("roundtrip lookup(%d) = %d,%v; want %d,true", id, p, ok, parts[i])
		}
	}
	if _, ok := back.lookup(99); ok {
		t.Fatal("roundtrip invented an entry for 99")
	}
}

func TestAssignTableFromPairsEmpty(t *testing.T) {
	if tbl := assignTableFromPairs(nil, nil); tbl != nil {
		t.Fatalf("empty pairs built a table with %d entries", tbl.len())
	}
}

func TestLocalityPlacementDeterministicAndBalanced(t *testing.T) {
	g := clusteredGraph(t, 16, 40, 9)
	const k = 4
	a := localityPlacement(g, k)
	b := localityPlacement(g, k)
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
}

// TestEdgeCutRebalancerMigrates runs label propagation on a
// hash-scattered clustered graph under the edge-cut objective: the
// rebalancer must trigger, tag its migrations with the objective and a
// positive gain, shrink the edge cut, and leave the computed values
// identical to an unrebalanced run.
func TestEdgeCutRebalancerMigrates(t *testing.T) {
	run := func(objective RebalanceObjective) (*Stats, string) {
		g := clusteredGraph(t, 24, 30, 5)
		stats, err := NewJob(g, ccCompute, Config{
			NumWorkers:         4,
			RebalanceObjective: objective,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats, g.ValuesDigest()
	}
	offStats, offDigest := run(ObjectiveSkew)
	onStats, onDigest := run(ObjectiveEdgeCut)
	if offStats.Rebalances != 0 {
		t.Fatalf("control run migrated: %+v", offStats)
	}
	if onStats.Rebalances == 0 || onStats.VerticesMigrated == 0 {
		t.Fatalf("edge-cut rebalancer never triggered: rebalances=%d migrated=%d",
			onStats.Rebalances, onStats.VerticesMigrated)
	}
	if onDigest != offDigest {
		t.Fatalf("values diverged once the edge-cut rebalancer migrated:\noff: %s\non:  %s", offDigest, onDigest)
	}
	var sawEvent bool
	var firstCut int64 = -1
	for _, ss := range onStats.PerSuperstep {
		if firstCut < 0 && ss.EdgeCut > 0 {
			firstCut = ss.EdgeCut
		}
		for _, m := range ss.Migrations {
			sawEvent = true
			if m.Objective != "edgecut" {
				t.Fatalf("migration objective = %q, want edgecut", m.Objective)
			}
			if m.Gain <= 0 {
				t.Fatalf("migration gain = %d, want > 0", m.Gain)
			}
		}
	}
	if !sawEvent {
		t.Fatal("stats recorded rebalances but no migration events")
	}
	if firstCut < 0 || onStats.EdgeCut >= firstCut {
		t.Fatalf("edge cut did not shrink: first %d, final %d", firstCut, onStats.EdgeCut)
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
		en.assign = newDenseAssignTable(0, ids[len(ids)-1])
		for _, id := range ids {
			en.assign.set(id, int(id)%k)
		}
	})
	bench("assign-dense-miss", func() {
		// The dense range covers the IDs but holds no entries, so every
		// lookup misses and falls through to the hash.
		en.assign = newDenseAssignTable(0, ids[len(ids)-1])
	})
	bench("assign-sparse-hit", func() {
		// A table built without a dense range keeps everything in the
		// overflow map — the rebalancer's lazy path.
		en.assign = newAssignTable()
		for _, id := range ids {
			en.assign.set(id, int(id)%k)
		}
	})
}
