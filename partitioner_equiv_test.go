package graft

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/trace"
)

// TestPartitionerDigestEquivalence is the placement property test:
// vertex placement must never leak into computation, so the canonical
// trace digest of a job must be identical under hash partitioning and
// under the streaming locality placer — across algorithms, graph
// shapes, seeds, and a mid-run crash with checkpoint recovery.
func TestPartitionerDigestEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func(seed int64) *Graph
	}{
		{
			"cc-webhost",
			algorithms.NewConnectedComponents,
			func(seed int64) *Graph { return graphgen.WebHostGraph(400, 20, 5, 0.8, seed) },
		},
		{
			"sssp-social",
			func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func(seed int64) *Graph { return graphgen.SocialGraph(300, 5, seed) },
		},
	}
	for _, tc := range cases {
		for _, seed := range []int64{3, 11} {
			for _, crashAt := range []int{-1, 1} {
				label := fmt.Sprintf("%s/seed=%d/crash=%d", tc.name, seed, crashAt)
				t.Run(label, func(t *testing.T) {
					hashView, hashStats := tracedPlaneRun(t, tc.build(seed), tc.alg(), false,
						EngineConfig{NumWorkers: 4, Partitioner: PartitionHash}, crashAt)
					locView, locStats := tracedPlaneRun(t, tc.build(seed), tc.alg(), false,
						EngineConfig{NumWorkers: 4, Partitioner: PartitionLocality}, crashAt)
					requireNoDiff(t, label, hashView, locView)
					if trace.Digest(hashView) != trace.Digest(locView) {
						t.Errorf("trace digests diverged across placements")
					}
					if hashStats.TotalMessages != locStats.TotalMessages {
						t.Errorf("TotalMessages: hash %d, locality %d",
							hashStats.TotalMessages, locStats.TotalMessages)
					}
					if locStats.Partitioner != PartitionLocality {
						t.Errorf("locality run reported partitioner %v", locStats.Partitioner)
					}
				})
			}
		}
	}
}

// TestPartitionerSubgraphValuesEquivalence covers the subgraph-centric
// mode, where per-superstep trajectories legitimately depend on
// placement (components collapse within a partition): the determinism
// anchor is the final vertex-value digest, which must match across
// placements and match vertex mode — and on a chain-of-communities
// graph the locality placement must converge in no more supersteps
// than hash, since whole communities stop crossing partitions.
func TestPartitionerSubgraphValuesEquivalence(t *testing.T) {
	run := func(subgraph bool, p PartitionerMode) (string, *Stats) {
		g := graphgen.ChainedCommunities(600, 12, 4, 7)
		_, stats := tracedPlaneRun(t, g, algorithms.NewConnectedComponents(), subgraph,
			EngineConfig{NumWorkers: 4, Partitioner: p}, -1)
		return g.ValuesDigest(), stats
	}
	vertexDigest, _ := run(false, PartitionHash)
	hashDigest, hashStats := run(true, PartitionHash)
	locDigest, locStats := run(true, PartitionLocality)
	if hashDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged from vertex mode under hash placement")
	}
	if locDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged from vertex mode under locality placement")
	}
	if locStats.Supersteps > hashStats.Supersteps {
		t.Errorf("locality placement took %d subgraph-mode supersteps, hash %d — placement made convergence worse",
			locStats.Supersteps, hashStats.Supersteps)
	}
}

// TestPartitionerConfinedRecoveryEquivalence keeps the name it had when
// one partition could be recovered alone. It crashes a locality-placed
// job and restarts it from a checkpoint: the assignment table restored
// from the checkpoint must route exactly as before the crash, so the
// trace digest must match both the uninterrupted locality run and the
// hash-placed crashed run.
func TestPartitionerConfinedRecoveryEquivalence(t *testing.T) {
	const crashAt = 3
	build := func() *Graph { return graphgen.ChainedCommunities(480, 8, 4, 7) }
	engine := func(p PartitionerMode) EngineConfig {
		return EngineConfig{NumWorkers: 4, Partitioner: p}
	}
	hashView, _ := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionHash), crashAt)
	cleanView, _ := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionLocality), -1)
	crashView, crashStats := tracedPlaneRun(t, build(), algorithms.NewConnectedComponents(), false,
		engine(PartitionLocality), crashAt)

	if crashStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", crashStats.Recoveries)
	}
	requireNoDiff(t, "locality crash vs clean", crashView, cleanView)
	requireNoDiff(t, "locality vs hash under crash", crashView, hashView)
	if d := trace.Digest(crashView); d != trace.Digest(cleanView) || d != trace.Digest(hashView) {
		t.Error("trace digests diverged across placement and recovery")
	}
}
