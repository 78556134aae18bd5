package pregel

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"graft/internal/dfs"
)

// checkpointMagic identifies the checkpoint format. Version 2 added
// the vertex placement table after the aggregators.
const checkpointMagic = "GRFTCKPT2"

func (en *engine) checkpointPath(superstep int) string {
	return fmt.Sprintf("%scheckpoint_%08d", en.cfg.CheckpointPrefix, superstep)
}

// writeCheckpoint serializes the pre-superstep state: superstep
// number, merged aggregator broadcast, every partition's vertices and
// the undelivered messages feeding this superstep.
func (en *engine) writeCheckpoint() error {
	e := NewEncoder()
	e.PutString(checkpointMagic)
	e.PutUvarint(uint64(en.superstep))
	e.PutUvarint(uint64(len(en.parts)))
	e.PutUvarint(uint64(len(en.job.aggNames)))
	for _, name := range en.job.aggNames {
		e.PutString(name)
		EncodeTyped(e, en.broadcast[name])
	}
	// The placement table — the locality partitioner's assignments — in
	// ascending vertex order: without it a restored engine would route
	// placed vertices' mail back to their hash partition.
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
	// Live slots are in ascending vertex ID order, the format's order.
	for _, p := range en.parts {
		e.PutUvarint(uint64(p.index.len()))
		for _, v := range p.slots {
			if v != nil {
				v.encode(e)
			}
		}
	}
	for _, p := range en.parts {
		en.cur.encode(p, e)
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

// gcCheckpoints deletes all but the newest keep checkpoints: after a
// successful write it keeps checkpointRetain, so long chaos runs stop
// accumulating unbounded checkpoint files, and for a canceled job none,
// since it will never resume (its trace is untouched and stays readable
// up to the last completed barrier). Deletions are counted in
// FaultStats.CheckpointsDeleted. Best-effort: listing or deletion
// failures leave extra files behind, never fewer.
func (en *engine) gcCheckpoints(keep int) {
	nums, err := en.listCheckpoints()
	if err != nil {
		return
	}
	for _, n := range nums[min(keep, len(nums)):] {
		if en.cfg.CheckpointFS.Remove(en.checkpointPath(n)) == nil {
			en.stats.Faults.CheckpointsDeleted++
		}
	}
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

// restoreCheckpointFile reads and restores one checkpoint. The engine
// is mutated only after the whole file decodes cleanly, so a failure
// here leaves the engine ready to try an older checkpoint.
func (en *engine) restoreCheckpointFile(superstep int) error {
	raw, err := dfs.ReadFile(en.cfg.CheckpointFS, en.checkpointPath(superstep))
	if err != nil {
		return err
	}
	st, err := en.decodeCheckpoint(raw)
	if err != nil {
		return err
	}
	en.install(st)
	return nil
}

// checkpointState is one decoded checkpoint, not yet installed into
// the engine.
type checkpointState struct {
	superstep int
	broadcast map[string]Value
	assign    *idTable
	// parts holds each checkpoint partition's vertices in encoded
	// (ascending ID) order; owners point at placeholder partitions and
	// are rewritten on install.
	parts [][]*Vertex
	// inbox holds the undelivered messages feeding the checkpointed
	// superstep, keyed by vertex ID; install delivers them to slots under
	// the routing it restores.
	inbox []inboxEntry
}

// decodeCheckpoint decodes a checkpoint without touching engine state,
// so a corrupt file leaves the engine as it was.
func (en *engine) decodeCheckpoint(raw []byte) (*checkpointState, error) {
	d := NewDecoder(raw)
	if magic := d.String(); magic != checkpointMagic {
		return nil, fmt.Errorf("pregel: bad checkpoint magic %q", magic)
	}
	st := &checkpointState{superstep: int(d.Uvarint())}
	numParts := d.Count(2) // each partition has a vertex count and an inbox count
	if d.Err() == nil && numParts != len(en.parts) {
		return nil, fmt.Errorf("pregel: checkpoint has %d partitions, engine has %d", numParts, len(en.parts))
	}
	nAggs := d.Count(2)
	st.broadcast = make(map[string]Value, nAggs)
	for i := 0; i < nAggs; i++ {
		name := d.String()
		v, err := DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		st.broadcast[name] = v
	}
	if nMoved := d.Count(2); nMoved > 0 {
		ids := make([]VertexID, nMoved)
		parts := make([]int, nMoved)
		for i := 0; i < nMoved; i++ {
			id := VertexID(d.Varint())
			p := d.Uvarint()
			if p >= uint64(numParts) {
				return nil, fmt.Errorf("pregel: checkpoint reassigns vertex %d to partition %d of %d", id, p, numParts)
			}
			ids[i], parts[i] = id, int(p)
		}
		st.assign = newIDTable(slices.Min(ids), slices.Max(ids), nMoved)
		for i, id := range ids {
			st.assign.set(id, parts[i])
		}
	}
	st.parts = make([][]*Vertex, numParts)
	for i := range st.parts {
		n := d.Count(4)
		vs := make([]*Vertex, 0, n)
		for j := 0; j < n; j++ {
			v, err := decodeVertex(d)
			if err != nil {
				return nil, err
			}
			// Written in ascending ID order: a repeated ID would get two
			// slots and compute twice.
			if j > 0 && v.id <= vs[j-1].id {
				return nil, fmt.Errorf("%w: partition %d out of vertex order at %d", ErrCorrupt, i, v.id)
			}
			vs = append(vs, v)
		}
		st.parts[i] = vs
	}
	for i := 0; i < numParts; i++ {
		inbox, err := decodeInbox(d, st.inbox)
		if err != nil {
			return nil, err
		}
		st.inbox = inbox
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return st, nil
}

// install replaces the engine's whole state with a decoded checkpoint.
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
			if k, ok := en.job.graph.index.lookup(v.id); ok {
				en.job.graph.vs[k] = v
			}
		}
	}

	// Per-superstep stats after the restore point are rewound so that
	// the recorded history matches the re-executed run. The cut keeps no
	// spare capacity: the re-run appends to a new array and never
	// rewrites a row a listener was handed.
	k := len(en.stats.PerSuperstep)
	for k > 0 && en.stats.PerSuperstep[k-1].Superstep >= st.superstep {
		k--
	}
	en.stats.PerSuperstep = en.stats.PerSuperstep[:k:k]
}
