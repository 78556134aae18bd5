package pregel

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// RecoveryMode selects how the engine recovers from injected worker
// failures.
type RecoveryMode int

const (
	// RecoveryCheckpoint is the classic Pregel strategy and the
	// default: any failure rewinds the whole job to the newest intact
	// checkpoint and every partition recomputes forward.
	RecoveryCheckpoint RecoveryMode = iota
	// RecoveryLog is confined recovery: only the failed partitions
	// roll back to the newest checkpoint and recompute forward in
	// parallel, their inboxes replayed from the sender-side outbox
	// logs, while surviving partitions keep their live state. Falls
	// back to RecoveryCheckpoint when the logs cannot drive a replay.
	RecoveryLog
)

func (m RecoveryMode) String() string {
	switch m {
	case RecoveryCheckpoint:
		return "checkpoint"
	case RecoveryLog:
		return "log"
	}
	return "unknown"
}

// RecoveryEvent is the per-recovery breakdown appended to
// Stats.RecoveryEvents.
type RecoveryEvent struct {
	// Superstep is the barrier at which the failure was injected.
	Superstep int `json:"superstep"`
	// Mode is "log" for a confined replay, "checkpoint" for a full
	// restart (including log-mode fallbacks).
	Mode string `json:"mode"`
	// Partitions lists the partitions that failed.
	Partitions []int `json:"partitions"`
	// CheckpointSuperstep is the superstep of the checkpoint the
	// recovery rolled back to.
	CheckpointSuperstep int `json:"checkpoint_superstep"`
	// PartitionsRecomputed is how many partitions recomputed: the
	// failed ones under confined recovery, all of them under restart.
	PartitionsRecomputed int `json:"partitions_recomputed"`
	// SuperstepsReplayed counts supersteps recomputed on the way back
	// to the failure point.
	SuperstepsReplayed int `json:"supersteps_replayed"`
	// MessagesReplayed and BytesReplayed count the logged traffic
	// delivered back to the failed partitions (zero under restart,
	// where messages are recomputed, not replayed).
	MessagesReplayed int64 `json:"messages_replayed"`
	BytesReplayed    int64 `json:"bytes_replayed"`
	// Duration is the recovery's wall time; for restarts it includes
	// the re-execution of the rewound supersteps.
	Duration time.Duration `json:"duration_ns"`
}

// errReplayUnusable means the outbox logs cannot drive a confined
// replay (corrupt or unreadable segment, broken writer, missing
// history); the engine degrades to a full checkpoint restart.
var errReplayUnusable = errors.New("pregel: outbox log unusable for confined replay")

// stepSnapshot is what confined replay needs to re-run one
// superstep's computes without re-running its master phase: the
// post-master aggregate broadcast and the vertex/edge totals.
type stepSnapshot struct {
	nv, ne int64
	aggs   map[string]Value
}

// checkFailure consults the failure-injection hooks for this barrier.
// Both hooks are always called (they may be stateful); FailureAt
// fails the whole job, PartitionFailureAt just the listed partitions.
// The returned list is validated, deduplicated and sorted.
func (en *engine) checkFailure(superstep int) ([]int, bool) {
	failed := false
	var parts []int
	if en.cfg.PartitionFailureAt != nil {
		if ps := en.cfg.PartitionFailureAt(superstep); len(ps) > 0 {
			failed = true
			seen := make(map[int]bool, len(ps))
			for _, p := range ps {
				if p >= 0 && p < len(en.parts) && !seen[p] {
					seen[p] = true
					parts = append(parts, p)
				}
			}
		}
	}
	if en.cfg.FailureAt != nil && en.cfg.FailureAt(superstep) {
		failed = true
		parts = nil
	}
	if !failed {
		return nil, false
	}
	if len(parts) == 0 {
		// Whole-job crash (or a partition list that named no real
		// partition): every partition failed.
		parts = make([]int, len(en.parts))
		for i := range parts {
			parts[i] = i
		}
	}
	sort.Ints(parts)
	return parts, true
}

// maxRecoveries bounds the recovery attempts of one job.
const maxRecoveries = 3

// consumeRecoveryBudget charges one recovery attempt against
// maxRecoveries.
func (en *engine) consumeRecoveryBudget() error {
	if en.stats.Recoveries >= maxRecoveries {
		return ErrTooManyRecoveries
	}
	en.stats.Recoveries++
	return nil
}

// confinedRecover performs log-based confined recovery for the given
// failed partitions at the current barrier (superstep S = en.superstep
// just completed): roll only those partitions back to the newest
// intact checkpoint C, recompute them forward through S in parallel
// with their inboxes replayed from the outbox logs, and rebuild their
// S+1 inbox shards in en.next. Surviving partitions are never touched.
// Returns errReplayUnusable when the caller should fall back to a full
// checkpoint restart; other errors are fatal.
func (en *engine) confinedRecover(failedParts []int, ev *RecoveryEvent) error {
	if en.msglog == nil || en.msglog.broken {
		return errReplayUnusable
	}
	if en.cfg.CheckpointFS == nil {
		return ErrNoCheckpoint
	}
	S := en.superstep
	nums, err := en.listCheckpoints()
	if err != nil {
		return err
	}
	// Newest intact checkpoint at or below the failure point. A corrupt
	// candidate is counted and skipped in favor of the next older one,
	// exactly like restoreNewestIntact.
	var raw []byte
	C := -1
	for _, n := range nums {
		if n > S {
			continue
		}
		b, err := en.readCheckpointFile(n)
		if err != nil {
			en.stats.Faults.CorruptCheckpoints++
			continue
		}
		if _, err := en.decodeCheckpoint(b); err != nil {
			en.stats.Faults.CorruptCheckpoints++
			continue
		}
		raw, C = b, n
		break
	}
	if C < 0 {
		return ErrNoCheckpoint
	}
	if en.cfg.ComputeMode == ModeSubgraph && en.lastMigration >= C {
		// A subgraph superstep's sends depend on which vertices share a
		// partition. The logs hold what the placement of the time sent;
		// replaying the failed partitions under the placement of today
		// computes something else, and the sends that would reconcile the
		// two are the ones replay suppresses.
		return fmt.Errorf("%w: subgraph components migrated since checkpoint %d", errReplayUnusable, C)
	}

	// Load and verify every logged frame the replay will need, up
	// front: a hole discovered mid-replay would leave the failed
	// partitions half-rebuilt with no way back.
	steps, err := en.msglog.loadLoggedSteps(C, S)
	if err != nil {
		en.stats.Faults.CorruptLogSegments++
		return fmt.Errorf("%w: %v", errReplayUnusable, err)
	}
	for t := C; t <= S; t++ {
		if _, ok := en.history[t]; !ok {
			return fmt.Errorf("%w: no aggregate snapshot for superstep %d", errReplayUnusable, t)
		}
		if steps[t] == nil {
			// A superstep that sent nothing logs nothing; synthesize an
			// empty record so the replay loop can index it uniformly.
			n := len(en.parts)
			steps[t] = &loggedStep{
				batches:         make([][]loggedBatch, n),
				senderRemovals:  make([][]VertexID, n),
				senderAdditions: make([][]vertexAddition, n),
			}
		}
	}

	failed := make(map[int]bool, len(failedParts))
	for _, p := range failedParts {
		failed[p] = true
	}

	// Nested failures during the replay merge into the failed set and
	// restart the replay from a fresh checkpoint decode (the previous
	// attempt's partially recomputed state is discarded wholesale).
	for {
		st, err := en.decodeCheckpoint(raw)
		if err != nil {
			// Decoded cleanly above; a failure now means storage changed
			// under us. Degrade.
			en.stats.Faults.CorruptCheckpoints++
			return fmt.Errorf("%w: %v", errReplayUnusable, err)
		}
		nested, err := en.replayOnce(st, C, S, failed, steps, ev)
		if err != nil {
			return err
		}
		if len(nested) == 0 {
			break
		}
		if err := en.consumeRecoveryBudget(); err != nil {
			return err
		}
		for _, p := range nested {
			failed[p] = true
		}
	}

	// Rebuild the failed partitions' next-superstep inboxes from the
	// logs of S: survivors' shards in en.next are intact (they include
	// what the failed partitions sent during S — logged and durable
	// before the crash), but the failed shards died with their owners.
	last := steps[S]
	removals, additions := last.mutations()
	en.applyLoggedMutations(removals, additions, failed)
	en.foldReplayEdgeDeltas(failed)
	for p := range failed {
		en.next.resetShard(p)
	}
	msgs, bytes := en.replayInto(en.next, last, failed, C)
	ev.MessagesReplayed += msgs
	ev.BytesReplayed += bytes
	en.resolveReplayMissing(en.next, failed)
	en.recountActive()

	ev.CheckpointSuperstep = C
	ev.PartitionsRecomputed = len(failed)
	ev.SuperstepsReplayed += S - C + 1
	ev.Partitions = ev.Partitions[:0]
	for p := range failed {
		ev.Partitions = append(ev.Partitions, p)
	}
	sort.Ints(ev.Partitions)
	return nil
}

// replayOnce rolls the failed partitions back to checkpoint state and
// recomputes them through superstep S. It returns the partitions of
// any nested failure injected during the replay window (the caller
// merges them and retries); a non-nil error is fatal or degrades to
// restart.
func (en *engine) replayOnce(st *checkpointState, C, S int, failed map[int]bool, steps map[int]*loggedStep, ev *RecoveryEvent) ([]int, error) {
	// Roll back: fresh partition shells for the failed set, populated
	// with checkpointed vertices that route there *today* — routing may
	// have changed since C if the rebalancer migrated vertices, and
	// current placement is what survivors' state reflects.
	for p := range failed {
		en.parts[p] = en.newPartition(p)
	}
	var rolled []*Vertex
	for _, vs := range st.parts {
		for _, v := range vs {
			if failed[en.partitionFor(v.id)] {
				rolled = append(rolled, v)
			}
		}
	}
	// Checkpoint partitions are each in ascending ID order, but routing
	// may have regrouped them; slots fill in ascending ID order overall.
	sort.Slice(rolled, func(i, j int) bool { return rolled[i].id < rolled[j].id })
	for _, v := range rolled {
		en.parts[en.partitionFor(v.id)].add(v)
		en.job.graph.vertices[v.id] = v
	}

	// Inbox for superstep C comes from the checkpoint itself (its
	// resolver-created vertices are already in the vertex lists, so no
	// resolution pass here).
	inbox := en.newStore()
	for _, ent := range st.inbox {
		if p := en.partitionFor(ent.id); failed[p] {
			for _, v := range ent.msgs {
				inbox.replayDeliver(en.parts[p], ent.id, v)
			}
		}
	}

	for t := C; t <= S; t++ {
		snap := en.history[t]
		if err := en.replayStep(t, snap, inbox, failed); err != nil {
			return nil, err
		}
		if t == S {
			break
		}
		// Replayed barrier t: logged mutations first, then the next
		// inbox from the logs with missing-vertex resolution — the same
		// order as a live barrier.
		lst := steps[t]
		removals, additions := lst.mutations()
		en.applyLoggedMutations(removals, additions, failed)
		en.foldReplayEdgeDeltas(failed)
		inbox = en.newStore()
		msgs, bytes := en.replayInto(inbox, lst, failed, C)
		ev.MessagesReplayed += msgs
		ev.BytesReplayed += bytes
		en.resolveReplayMissing(inbox, failed)
		// Nested failure during the replay window. The original
		// failure's barrier S is not re-consulted — the hooks already
		// fired for it.
		if nested, isFailed := en.checkFailure(t); isFailed {
			return nested, nil
		}
	}
	return nil, nil
}

// replayStep re-runs superstep t's computes on the failed partitions
// in parallel, against the snapshot aggregates. Sends, aggregation and
// mutation requests from the replayed computes are suppressed — their
// effects are replayed from the logs instead — but instrumented
// computations still observe identical vertex state, messages and
// context, so trace captures re-emitted here match the originals.
func (en *engine) replayStep(t int, snap stepSnapshot, inbox *messageStore, failed map[int]bool) error {
	errs := make(map[int]error, len(failed))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := range failed {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			err := en.replayWorker(p, t, snap, inbox)
			if err != nil {
				mu.Lock()
				errs[p] = err
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayCtx builds the Context of one replayed worker superstep:
// outputs suppressed, aggregates read from the snapshot.
func (en *engine) replayCtx(p, t int, snap stepSnapshot) *workerCtx {
	return &workerCtx{
		en:          en,
		worker:      p,
		superstep:   t,
		numVertices: snap.nv,
		numEdges:    snap.ne,
		aggPartial:  map[string]Value{},
		replay:      true,
		bcast:       snap.aggs,
	}
}

func (en *engine) replayWorker(p, t int, snap stepSnapshot, inbox *messageStore) error {
	if en.cfg.ComputeMode == ModeSubgraph {
		return en.replaySubgraphWorker(p, t, snap, inbox)
	}
	var res workerResult
	return en.computeFrontier(en.replayCtx(p, t, snap), en.parts[p], inbox, &res)
}

// replayInto routes logged entries into the store's failed shards,
// sender-major and in log order — reproducing mergeLane's
// deterministic combine order. Every entry is routed by *current*
// partitionFor: the logged frame destination is send-time routing,
// which the rebalancer may since have changed. When no migration has
// happened since the checkpoint, frame destinations are still exact
// and whole frames outside the failed set are skipped.
func (en *engine) replayInto(store *messageStore, lst *loggedStep, failed map[int]bool, checkpointStep int) (msgs, bytes int64) {
	narrow := en.lastMigration < checkpointStep // no moves since the replay window opened
	for sender := range lst.batches {
		for _, b := range lst.batches[sender] {
			if narrow && !failed[b.dest] {
				continue
			}
			delivered := false
			for _, ent := range b.entries {
				p := en.partitionFor(ent.to)
				if !failed[p] {
					continue
				}
				// Clone: the decoded log is shared across nested replay
				// attempts, and a combiner may mutate delivered values.
				store.replayDeliver(en.parts[p], ent.to, CloneValue(ent.msg))
				msgs++
				delivered = true
			}
			if delivered {
				bytes += b.rawBytes
			}
		}
	}
	return msgs, bytes
}

// applyLoggedMutations replays a barrier's vertex removals and
// additions, restricted to vertices owned by failed partitions
// (survivors applied theirs live, before the crash). Mirrors
// applyMutations' sorted order and removed-then-added semantics;
// active counts are not maintained here — confined recovery recounts
// from ground truth once the replay ends.
func (en *engine) applyLoggedMutations(removals []VertexID, additions []vertexAddition, failed map[int]bool) {
	var rem []VertexID
	for _, id := range removals {
		if failed[en.partitionFor(id)] {
			rem = append(rem, id)
		}
	}
	sort.Slice(rem, func(i, j int) bool { return rem[i] < rem[j] })
	for _, id := range rem {
		p := en.parts[en.partitionFor(id)]
		if slot, ok := p.index.lookup(id); ok {
			p.remove(slot)
		}
	}
	var adds []vertexAddition
	for _, add := range additions {
		if failed[en.partitionFor(add.id)] {
			adds = append(adds, add)
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i].id < adds[j].id })
	var dirty []*partition
	for _, add := range adds {
		p := en.parts[en.partitionFor(add.id)]
		if p.vertex(add.id) != nil {
			continue
		}
		val := add.value
		if val != nil {
			val = CloneValue(val) // the decoded log is shared across replay attempts
		} else if en.cfg.DefaultVertexValue != nil {
			val = en.cfg.DefaultVertexValue()
		}
		v := &Vertex{id: add.id, value: val}
		p.add(v)
		if p.removed > 0 {
			dirty = append(dirty, p)
		}
		en.job.graph.vertices[add.id] = v
	}
	// Replayed inboxes are rebuilt after each replayed barrier, so no
	// slot-addressed state has to follow these rebuilds.
	for _, p := range dirty {
		if p.removed > 0 {
			p.rebuild()
		}
	}
}

// foldReplayEdgeDeltas folds the failed partitions' in-superstep edge
// mutations into their edge counts, as applyMutations does for every
// partition at a live barrier.
func (en *engine) foldReplayEdgeDeltas(failed map[int]bool) {
	for p := range failed {
		part := en.parts[p]
		part.edges += int64(part.edgeDelta)
		part.edgeDelta = 0
		if part.needsCompaction() {
			part.rebuild()
		}
	}
}

// resolveReplayMissing re-runs the missing-vertex resolution a live
// barrier would have done, restricted to failed shards: replayed
// messages addressed to vertices that do not exist either create them
// (CreateMissingVertices — the original barrier created the same
// vertices, so this rebuilds failed state, not new state) or are
// removed without re-counting Stats.MessagesDropped (the original run
// already counted them).
func (en *engine) resolveReplayMissing(store *messageStore, failed map[int]bool) {
	for p := range failed {
		created, _ := en.resolveOrphans(store, en.parts[p])
		for _, v := range created {
			en.job.graph.vertices[v.id] = v
		}
	}
}
