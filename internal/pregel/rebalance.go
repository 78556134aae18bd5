package pregel

import (
	"sort"

	"graft/internal/anomaly"
)

// defaultRebalanceMaxMoves is used when Config.RebalanceMaxMoves is 0.
const defaultRebalanceMaxMoves = 1024

// rebalance is the skew-driven adaptive repartitioner. It runs on the
// coordinator at the barrier, after foldTelemetry and the lane merge,
// when Config.RebalanceSkew is set. The trigger is no longer its own:
// the engine evaluates the anomaly package's shared skew model
// (anomaly.EvaluateSkew — the same verdict the straggler-persistence
// detector counts streaks of) and passes the verdict in, so detection
// and mitigation cannot drift apart. When the verdict triggered, the
// hottest vertices (by out-degree, the deterministic proxy for message
// work) migrate off the indicted partition to the least-loaded one —
// vertex objects, pending next-superstep messages, and the routing
// table consulted by partitionFor, so checkpoints and recovery stay
// consistent. Placement never changes computation semantics, only
// which worker runs a vertex, so traces and results are identical with
// the rebalancer on or off.
func (en *engine) rebalance(ss *SuperstepStats, v anomaly.SkewVerdict) {
	if !v.Triggered || len(en.parts) < 2 || len(ss.Workers) != len(en.parts) {
		return
	}
	from, skew := v.Worker, v.Skew
	src := en.parts[from]
	if src.live < 2 {
		return
	}

	// Receiver: the partition with the lightest load this superstep,
	// lowest index on ties so the choice is reproducible.
	to := -1
	for w := range ss.Workers {
		if w == from {
			continue
		}
		if to < 0 || lighter(&ss.Workers[w], &ss.Workers[to]) {
			to = w
		}
	}
	if to < 0 {
		return
	}

	// Move half the straggler's excess over the mean (skew = max/mean,
	// so the excess fraction is 1 - 1/skew). Halving damps oscillation:
	// the hottest vertices go first, so load moves faster than the
	// vertex count suggests.
	budget := int(float64(src.live) * (1 - 1/skew) / 2)
	if max := en.rebalanceMaxMoves(); budget > max {
		budget = max
	}
	if budget >= src.live {
		budget = src.live - 1
	}
	if budget < 1 {
		budget = 1
	}

	hot := make([]*Vertex, 0, src.live)
	for _, v := range src.slots {
		if v != nil {
			hot = append(hot, v)
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if di, dj := len(hot[i].edges), len(hot[j].edges); di != dj {
			return di > dj
		}
		return hot[i].id < hot[j].id
	})
	ids := make([]VertexID, budget)
	for i := range ids {
		ids[i] = hot[i].id
	}

	movedEdges := en.migrateVertices(from, to, ids)

	ev := MigrationEvent{From: from, To: to, Vertices: int64(budget), Edges: movedEdges, Skew: skew}
	ss.Migrations = append(ss.Migrations, ev)
}

// migrateVertices performs the mechanics of moving the given vertices
// from partition `from` to partition `to`: the vertex objects, the
// active counts, the pending next-superstep messages, the routing
// table consulted by partitionFor (so checkpoints and recovery stay
// consistent) and the rebalance bookkeeping. Returns the number of
// out-edges carried. Callers append their own MigrationEvent.
func (en *engine) migrateVertices(from, to int, ids []VertexID) int64 {
	src, dst := en.parts[from], en.parts[to]
	if en.assign == nil {
		en.assign = newAssignTable()
	}
	var movedEdges int64
	for _, id := range ids {
		// add and remove flag both partitions' cached subgraph membership
		// stale: the moved vertices' components must dissolve out of src
		// and re-form (possibly merging) in dst before the next
		// subgraph-mode scan.
		fromSlot, _ := src.index.lookup(id)
		v := src.slots[fromSlot]
		toSlot := dst.add(v)
		en.next.migrate(from, fromSlot, dst, toSlot)
		src.remove(fromSlot)
		if !v.halted {
			en.partActive[from]--
			en.partActive[to]++
		}
		en.assign.set(id, to)
		movedEdges += int64(len(v.edges))
	}
	if src.needsCompaction() {
		en.compact(src)
	}
	if dst.removed > 0 {
		// Vertices appended behind tombstones would make dst's iteration
		// order depend on its removal history; rebuilding restores
		// ascending-ID order.
		en.compact(dst)
	}
	en.stats.Rebalances++
	en.stats.VerticesMigrated += int64(len(ids))
	en.lastMigration = en.superstep
	en.edgeCutDirty = true
	return movedEdges
}

// Edge-cut rebalancing triggers only when the superstep moved enough
// messages for the matrix to mean something, and when the heaviest
// cross-partition lane carries at least this fraction of the
// superstep's traffic — below that, placement is already good enough
// that migrating would churn for noise.
const (
	edgecutMinMessages  = 128
	edgecutMinLaneShare = 1.0 / 16
)

// rebalanceEdgeCut is the communication-objective repartitioner
// (Config.RebalanceObjective = ObjectiveEdgeCut). It runs on the
// coordinator at the barrier, reading the superstep's traffic matrix:
// if the heaviest cross-partition lane (from→to) carries a meaningful
// share of the traffic, the boundary vertices of `from` whose
// out-edges lean toward `to` migrate there — each move strictly
// shrinks the directed edge cut between the pair, so on undirected
// graphs the placement monotonically improves and the trigger starves
// itself once the boundary is tight. Like the skew objective,
// placement never changes computation semantics: traces and results
// are identical with the rebalancer on or off.
func (en *engine) rebalanceEdgeCut(ss *SuperstepStats) {
	traffic := ss.Traffic
	if traffic == nil || len(en.parts) < 2 {
		return
	}
	var total, bestLane int64
	bestFrom, bestTo := -1, -1
	for s := range traffic {
		for d, msgs := range traffic[s] {
			total += msgs
			if s == d {
				continue
			}
			if msgs > bestLane {
				bestLane = msgs
				bestFrom, bestTo = s, d
			}
		}
	}
	if total < edgecutMinMessages || bestFrom < 0 ||
		float64(bestLane) < float64(total)*edgecutMinLaneShare {
		return
	}
	src := en.parts[bestFrom]
	if src.live < 2 {
		return
	}

	// Candidates: vertices whose out-edges reach the heavy partner more
	// often than they stay home. Moving one trades its home edges for
	// its partner edges, so gain = toDst - toSrc > 0 strictly shrinks
	// the cut between the pair.
	type candidate struct {
		id   VertexID
		gain int
	}
	var cands []candidate
	for _, v := range src.slots {
		if v == nil {
			continue
		}
		toDst, toSrc := 0, 0
		for i := range v.edges {
			switch en.partitionFor(v.edges[i].Target) {
			case bestTo:
				toDst++
			case bestFrom:
				toSrc++
			}
		}
		if toDst > toSrc {
			cands = append(cands, candidate{id: v.id, gain: toDst - toSrc})
		}
	}
	if len(cands) == 0 {
		return
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].id < cands[j].id
	})
	budget := en.rebalanceMaxMoves()
	if budget > len(cands) {
		budget = len(cands)
	}
	if budget >= src.live {
		budget = src.live - 1
	}
	if budget < 1 {
		return
	}
	ids := make([]VertexID, budget)
	var gain int64
	for i := 0; i < budget; i++ {
		ids[i] = cands[i].id
		gain += int64(cands[i].gain)
	}
	movedEdges := en.migrateVertices(bestFrom, bestTo, ids)

	ev := MigrationEvent{
		From: bestFrom, To: bestTo,
		Vertices: int64(budget), Edges: movedEdges,
		Skew:      float64(bestLane) / float64(total),
		Objective: "edgecut", Gain: gain,
	}
	ss.Migrations = append(ss.Migrations, ev)
}

func (en *engine) rebalanceMaxMoves() int {
	if en.cfg.RebalanceMaxMoves > 0 {
		return en.cfg.RebalanceMaxMoves
	}
	return defaultRebalanceMaxMoves
}

// lighter orders workers by this superstep's load, compute time first
// (what the skew trigger watches), messages sent as the tie-break.
func lighter(a, b *WorkerStepStats) bool {
	if a.ComputeTime != b.ComputeTime {
		return a.ComputeTime < b.ComputeTime
	}
	return a.MessagesSent < b.MessagesSent
}
