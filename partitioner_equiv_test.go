package graft

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
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
					hashView, hashStats := tracedPlaneRun(t, tc.build(seed), tc.alg(),
						EngineConfig{NumWorkers: 4, Partitioner: PartitionHash}, crashAt)
					locView, locStats := tracedPlaneRun(t, tc.build(seed), tc.alg(),
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
	run := func(mode pregel.ComputeMode, p PartitionerMode) (string, *Stats) {
		g := graphgen.ChainedCommunities(600, 12, 4, 7)
		_, stats := tracedPlaneRun(t, g, algorithms.NewConnectedComponents(),
			EngineConfig{NumWorkers: 4, ComputeMode: mode, Partitioner: p}, -1)
		return g.ValuesDigest(), stats
	}
	vertexDigest, _ := run(pregel.ModeVertex, PartitionHash)
	hashDigest, hashStats := run(pregel.ModeSubgraph, PartitionHash)
	locDigest, locStats := run(pregel.ModeSubgraph, PartitionLocality)
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

// TestPartitionerConfinedRecoveryEquivalence crashes one partition of a
// locality-placed job and recovers it with log-based confined replay:
// the restored assignment table must route exactly as before the crash,
// so the trace digest must match both the uninterrupted locality run
// and the hash-placed runs.
func TestPartitionerConfinedRecoveryEquivalence(t *testing.T) {
	const crashAt, victim = 3, 1
	build := func() *Graph { return graphgen.ChainedCommunities(480, 8, 4, 7) }
	engine := func(p PartitionerMode) EngineConfig {
		return EngineConfig{NumWorkers: 4, Partitioner: p}
	}
	hashView, _ := tracedRecoveryRun(t, build(), algorithms.NewConnectedComponents(),
		engine(PartitionHash), RecoveryLog, crashAt, victim)
	cleanView, _ := tracedRecoveryRun(t, build(), algorithms.NewConnectedComponents(),
		engine(PartitionLocality), RecoveryLog, -1, 0)
	crashView, crashStats := tracedRecoveryRun(t, build(), algorithms.NewConnectedComponents(),
		engine(PartitionLocality), RecoveryLog, crashAt, victim)

	if crashStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", crashStats.Recoveries)
	}
	for _, ev := range crashStats.RecoveryEvents {
		if len(ev.Partitions) != 1 || ev.Partitions[0] != victim {
			t.Fatalf("recovery was not confined to partition %d: %+v", victim, ev)
		}
	}
	requireNoDiff(t, "locality crash vs clean", crashView, cleanView)
	requireNoDiff(t, "locality vs hash under crash", crashView, hashView)
	if d := trace.Digest(crashView); d != trace.Digest(cleanView) || d != trace.Digest(hashView) {
		t.Error("trace digests diverged across placement and confined recovery")
	}
}

// TestPartitionerWithEdgeCutRebalancer layers the edge-cut rebalancer
// on top of both placements: migrations rewrite the assignment table
// mid-run, and the trace digest must still be placement-invariant.
func TestPartitionerWithEdgeCutRebalancer(t *testing.T) {
	run := func(p PartitionerMode, objective RebalanceObjective) (trace.View, *Stats) {
		return tracedPlaneRun(t, graphgen.ChainedCommunities(600, 12, 4, 7),
			algorithms.NewConnectedComponents(),
			EngineConfig{NumWorkers: 4,
				Partitioner: p, RebalanceObjective: objective}, -1)
	}
	baseView, _ := run(PartitionHash, ObjectiveSkew)
	onView, onStats := run(PartitionHash, ObjectiveEdgeCut)
	locView, locStats := run(PartitionLocality, ObjectiveEdgeCut)

	if onStats.Rebalances == 0 {
		t.Fatalf("edge-cut rebalancer never triggered on the hash-placed run: %+v", onStats)
	}
	requireNoDiff(t, "edgecut rebalancer on vs off", baseView, onView)
	requireNoDiff(t, "edgecut rebalancer across placements", baseView, locView)
	if onStats.EdgeCut >= onStats.PerSuperstep[0].EdgeCut {
		t.Errorf("edge-cut rebalancing did not shrink the cut: first %d, final %d",
			onStats.PerSuperstep[0].EdgeCut, onStats.EdgeCut)
	}
	// A locality-placed run starts near the optimum, so the rebalancer
	// must not churn it apart: its final cut stays below the hash run's.
	if locStats.EdgeCut > onStats.EdgeCut {
		t.Errorf("locality+rebalancer final cut %d above hash+rebalancer %d",
			locStats.EdgeCut, onStats.EdgeCut)
	}
}
