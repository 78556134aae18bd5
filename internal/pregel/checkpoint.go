package pregel

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// FileSystem is the storage abstraction the engine checkpoints into
// and Graft writes trace files into. The dfs package provides
// in-memory, local-disk and simulated-distributed implementations; the
// interface is structural so any of them satisfies it.
type FileSystem interface {
	// Create opens a new file for writing, truncating any existing
	// file at the path.
	Create(path string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(path string) (io.ReadCloser, error)
	// List returns the paths of all files whose names start with
	// prefix, in lexicographic order.
	List(prefix string) ([]string, error)
	// Remove deletes a file.
	Remove(path string) error
}

// checkpointMagic identifies the checkpoint format. Version 2 added
// the rebalancer's vertex-reassignment table after the aggregators.
const checkpointMagic = "GRFTCKPT2"

func (en *engine) checkpointPath(superstep int) string {
	return fmt.Sprintf("%scheckpoint_%08d", en.cfg.CheckpointPrefix, superstep)
}

// writeCheckpoint serializes the pre-superstep state: superstep
// number, merged aggregator broadcast, every partition's vertices and
// the undelivered messages feeding this superstep.
func (en *engine) writeCheckpoint() error {
	if en.cfg.CheckpointFS == nil {
		return fmt.Errorf("CheckpointEvery set but CheckpointFS is nil")
	}
	e := NewEncoder()
	e.PutString(checkpointMagic)
	e.PutUvarint(uint64(en.superstep))
	e.PutUvarint(uint64(len(en.parts)))
	e.PutUvarint(uint64(len(en.job.aggNames)))
	for _, name := range en.job.aggNames {
		e.PutString(name)
		EncodeTyped(e, en.broadcast[name])
	}
	// The placement table — locality assignments and rebalancer
	// migrations alike — in ascending vertex order: without it a
	// restored engine would route placed vertices' mail back to their
	// hash partition. The wire format is unchanged from the original
	// rebalancer-only table, so GRFTCKPT2 stays GRFTCKPT2.
	var movedIDs []VertexID
	var movedParts []int
	if en.assign != nil {
		movedIDs, movedParts = en.assign.pairs()
	}
	e.PutUvarint(uint64(len(movedIDs)))
	for i, id := range movedIDs {
		e.PutVarint(int64(id))
		e.PutUvarint(uint64(movedParts[i]))
	}
	// Slot order is not ID order once vertices were added or migrated,
	// and the format is ascending vertex ID; the scratch slices are
	// shared across partitions and message shards.
	var live []*Vertex
	for _, p := range en.parts {
		live = live[:0]
		for _, v := range p.slots {
			if v != nil {
				live = append(live, v)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
		e.PutUvarint(uint64(len(live)))
		for _, v := range live {
			v.encode(e)
		}
	}
	var scratch []int
	for _, p := range en.parts {
		scratch = en.cur.encode(p, e, scratch)
	}

	path := en.checkpointPath(en.superstep)
	w, err := en.cfg.CheckpointFS.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(e.Bytes()); err != nil {
		w.Close()
		// Never leave a truncated file as the newest checkpoint:
		// recovery prefers the highest superstep number, so a torn
		// newest file would shadow an older intact one.
		en.cfg.CheckpointFS.Remove(path)
		return err
	}
	if err := w.Close(); err != nil {
		en.cfg.CheckpointFS.Remove(path)
		return err
	}
	return nil
}

// listCheckpoints returns the superstep numbers of every checkpoint
// file under the configured prefix, newest first.
func (en *engine) listCheckpoints() ([]int, error) {
	names, err := en.cfg.CheckpointFS.List(en.cfg.CheckpointPrefix + "checkpoint_")
	if err != nil {
		return nil, err
	}
	var nums []int
	for _, name := range names {
		idx := strings.LastIndex(name, "checkpoint_")
		if idx < 0 {
			continue
		}
		n, err := strconv.Atoi(name[idx+len("checkpoint_"):])
		if err != nil {
			continue
		}
		nums = append(nums, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(nums)))
	return nums, nil
}

// checkpointRetain is the retention-GC depth: the newest K checkpoints
// kept after each successful write.
const checkpointRetain = 2

// gcCheckpoints deletes all but the newest K checkpoints after a
// successful write, so long chaos runs stop accumulating unbounded
// checkpoint files, then prunes the outbox log and history that no
// surviving checkpoint can ever need (recovery always rolls back to a
// retained checkpoint, so frames and snapshots older than the oldest
// one are dead weight). Deletions are counted in
// FaultStats.CheckpointsDeleted. Best-effort: listing or deletion
// failures leave extra files behind, never fewer.
func (en *engine) gcCheckpoints() {
	nums, err := en.listCheckpoints()
	if err != nil || len(nums) == 0 {
		return
	}
	for _, n := range nums[min(checkpointRetain, len(nums)):] {
		if en.cfg.CheckpointFS.Remove(en.checkpointPath(n)) == nil {
			en.stats.Faults.CheckpointsDeleted++
		}
	}
	oldest := nums[min(checkpointRetain, len(nums))-1]
	if en.msglog != nil {
		en.msglog.gc(oldest)
		for t := range en.history {
			if t < oldest {
				delete(en.history, t)
			}
		}
	}
}

// cleanupCanceled deletes every checkpoint and outbox-log segment of a
// canceled job: the job will never resume, so its recovery artifacts
// are dead weight in the shared store. Deletions are counted in
// FaultStats.CheckpointsDeleted; failures leave files behind, never
// corrupt them. The trace is untouched — it stays readable up to the
// last completed barrier.
func (en *engine) cleanupCanceled() {
	if en.cfg.CheckpointFS != nil {
		if nums, err := en.listCheckpoints(); err == nil {
			for _, n := range nums {
				if en.cfg.CheckpointFS.Remove(en.checkpointPath(n)) == nil {
					en.stats.Faults.CheckpointsDeleted++
				}
			}
		}
	}
	if en.msglog != nil {
		// gc drops every segment strictly older than its argument; no
		// future superstep will ever be needed again.
		en.msglog.gc(en.superstep + 1)
		en.history = nil
	}
}

// recoverFromCheckpoint charges one attempt against the recovery
// budget, then restores the newest intact checkpoint (the whole-job
// restart path).
func (en *engine) recoverFromCheckpoint() error {
	if err := en.consumeRecoveryBudget(); err != nil {
		return err
	}
	return en.restoreNewestIntact()
}

// restoreNewestIntact restores the newest *intact* checkpoint at or
// before the current superstep, rewinding the engine so the run loop
// resumes from the checkpointed superstep. A checkpoint that cannot be
// read or decoded (truncated file, bad magic, lost DFS blocks) is
// skipped in favor of the next older one, and counted in
// Stats.Faults.CorruptCheckpoints; the hard error is ErrNoCheckpoint
// (nothing intact remains).
func (en *engine) restoreNewestIntact() error {
	if en.cfg.CheckpointFS == nil {
		return ErrNoCheckpoint
	}
	nums, err := en.listCheckpoints()
	if err != nil {
		return err
	}
	var candidates []int
	for _, n := range nums {
		if n <= en.superstep {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return ErrNoCheckpoint
	}
	var firstErr error
	for _, n := range candidates {
		err := en.restoreCheckpointFile(n)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("pregel: checkpoint %d: %w", n, err)
		}
		en.stats.Faults.CorruptCheckpoints++
	}
	return fmt.Errorf("%w (newest candidate: %v)", ErrNoCheckpoint, firstErr)
}

// readCheckpointFile reads one checkpoint's raw bytes.
func (en *engine) readCheckpointFile(superstep int) ([]byte, error) {
	r, err := en.cfg.CheckpointFS.Open(en.checkpointPath(superstep))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// restoreCheckpointFile reads and restores one checkpoint. The engine
// is mutated only after the whole file decodes cleanly, so a failure
// here leaves the engine ready to try an older checkpoint.
func (en *engine) restoreCheckpointFile(superstep int) error {
	raw, err := en.readCheckpointFile(superstep)
	if err != nil {
		return err
	}
	return en.restore(raw)
}

// checkpointState is one decoded checkpoint, not yet installed into
// the engine. Full restart installs all of it; confined recovery picks
// out just the failed partitions' vertices and inbox messages (by
// *current* routing) and ignores the rest.
type checkpointState struct {
	superstep int
	broadcast map[string]Value
	assign    *assignTable
	// parts holds each checkpoint partition's vertices in encoded
	// (ascending ID) order; owners point at placeholder partitions and
	// are rewritten on install.
	parts [][]*Vertex
	// inbox holds the undelivered messages feeding the checkpointed
	// superstep, keyed by vertex ID; install and confined recovery
	// deliver them to slots under the routing they restore.
	inbox []inboxEntry
}

func (en *engine) restore(raw []byte) error {
	st, err := en.decodeCheckpoint(raw)
	if err != nil {
		return err
	}
	en.install(st)
	return nil
}

// decodeCheckpoint decodes a checkpoint without touching engine state.
// Every call decodes fresh objects, so a caller can replay against one
// decode, throw it away, and decode again (nested-failure retries).
func (en *engine) decodeCheckpoint(raw []byte) (*checkpointState, error) {
	d := NewDecoder(raw)
	if magic := d.String(); magic != checkpointMagic {
		return nil, fmt.Errorf("pregel: bad checkpoint magic %q", magic)
	}
	st := &checkpointState{superstep: int(d.Uvarint())}
	numParts := int(d.Uvarint())
	if numParts != len(en.parts) {
		return nil, fmt.Errorf("pregel: checkpoint has %d partitions, engine has %d", numParts, len(en.parts))
	}
	nAggs := int(d.Uvarint())
	st.broadcast = make(map[string]Value, nAggs)
	for i := 0; i < nAggs; i++ {
		name := d.String()
		v, err := DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		st.broadcast[name] = v
	}
	nMoved := int(d.Uvarint())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nMoved > 0 {
		ids := make([]VertexID, nMoved)
		parts := make([]int, nMoved)
		for i := 0; i < nMoved; i++ {
			id := VertexID(d.Varint())
			p := int(d.Uvarint())
			if p < 0 || p >= numParts {
				return nil, fmt.Errorf("pregel: checkpoint reassigns vertex %d to partition %d of %d", id, p, numParts)
			}
			ids[i], parts[i] = id, p
		}
		st.assign = assignTableFromPairs(ids, parts)
	}
	st.parts = make([][]*Vertex, numParts)
	for i := range st.parts {
		n := int(d.Uvarint())
		if d.Err() != nil {
			return nil, d.Err()
		}
		vs := make([]*Vertex, 0, n)
		for j := 0; j < n; j++ {
			v, err := decodeVertex(d)
			if err != nil {
				return nil, err
			}
			vs = append(vs, v)
		}
		st.parts[i] = vs
	}
	for i := 0; i < numParts; i++ {
		var err error
		if st.inbox, err = decodeInbox(d, st.inbox); err != nil {
			return nil, err
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}

// install replaces the engine's whole state with a decoded checkpoint:
// the full-restart path.
func (en *engine) install(st *checkpointState) {
	for i, vs := range st.parts {
		p := en.newPartition(i)
		for _, v := range vs {
			p.add(v)
		}
		en.parts[i] = p
	}
	en.broadcast = st.broadcast
	en.superstep = st.superstep
	en.assign = st.assign
	en.edgeCutDirty = true
	en.recountActive()
	en.cur.reset()
	en.next.reset()
	for _, ent := range st.inbox {
		part := en.parts[en.partitionFor(ent.id)]
		for _, m := range ent.msgs {
			en.cur.replayDeliver(part, ent.id, m)
		}
	}

	// Re-point the input graph at the restored vertex objects; the
	// pre-failure ones are stale and must not be what callers read
	// after the run. Entries for vertices in no partition are kept:
	// those left the computation before the checkpoint (RemoveVertexRequest),
	// and their graph entry holds their preserved final state — often
	// the algorithm's output, e.g. matching partners in MWM.
	for _, vs := range st.parts {
		for _, v := range vs {
			en.job.graph.vertices[v.id] = v
		}
	}

	// Per-superstep stats after the restore point are rewound so that
	// the recorded history matches the re-executed run.
	for len(en.stats.PerSuperstep) > 0 &&
		en.stats.PerSuperstep[len(en.stats.PerSuperstep)-1].Superstep >= st.superstep {
		en.stats.PerSuperstep = en.stats.PerSuperstep[:len(en.stats.PerSuperstep)-1]
	}
}
