package pregel

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"graft/internal/dfs"
	"graft/internal/segio"
)

// Sender-side outbox logging for confined (log-based) recovery, after
// Yan/Cheng/Yang's lightweight fault tolerance: every worker appends
// its per-destination outgoing message batches — and its mutation
// requests — to an append-only, checksummed log at each superstep
// barrier. On failure, only the failed partitions roll back to the
// latest checkpoint and recompute forward; the messages they would
// have received are replayed from these logs (survivors' and their
// own) instead of being recomputed by the whole cluster.
//
// The container is the segment+index format shared with the trace
// store (internal/segio): one lane per sending worker,
//
//	<prefix>msglog/worker_NN/seg_000000.seg
//	<prefix>msglog/worker_NN/idx_000000.idx
//
// flushed — sealed, and indexed by one new part — at every barrier, so
// the log is consistent to the last completed superstep, exactly like
// the checkpoints it complements, and a barrier costs what it appends
// however many supersteps came before.
//
// Each frame is one record with a trailing CRC32 (IEEE, little-endian,
// over all preceding payload bytes):
//
//	messages (kind 1): kind, uvarint superstep, uvarint destination
//	  partition, uvarint entry count, then per entry the zig-zag
//	  varint vertex ID and the typed message value (an unboxed row is
//	  written as the Value it stands for, so the bytes do not depend on
//	  how the message travelled). One frame per flushed msgBatch, in
//	  flush order, so replay can reproduce mergeLane's deterministic
//	  combine order.
//	mutations (kind 2): kind, uvarint superstep, uvarint removal
//	  count + zig-zag varint IDs, uvarint addition count + per
//	  addition the zig-zag varint ID, a has-value byte and the typed
//	  value. One frame per worker per superstep, only when non-empty.
//
// The index entry coordinates are (kind, superstep, destination
// partition); retention GC prunes whole segments once every entry is
// older than the oldest retained checkpoint.
const (
	msgLogFrameMessages  = 1
	msgLogFrameMutations = 2

	// msgLogSegmentSize is the outbox-log segment size threshold.
	msgLogSegmentSize = 256 << 10
	// msgLogDir is the outbox-log directory within Config.MsgLogFS.
	msgLogDir = "msglog"
)

// msgLog is the engine's outbox log: one segment-lane writer per
// sending worker. The coordinator drives it at the barrier; the
// per-sender goroutines inside logSuperstep each own exactly one
// writer, preserving the single-writer-per-lane contract.
type msgLog struct {
	fs      dfs.FileSystem
	writers []*segio.Writer
	encs    []*Encoder
	// parts[sender] is the lane's committed index, as its writer's
	// flushes returned it: what recovery reads back and gc prunes.
	parts [][]segio.Part
	// broken is set on the first write failure: the log can no longer
	// prove completeness, so confined recovery refuses to use it and
	// falls back to checkpoint restart.
	broken bool
}

func newMsgLog(fs dfs.FileSystem, numWorkers int) *msgLog {
	l := &msgLog{
		fs:      fs,
		writers: make([]*segio.Writer, numWorkers),
		encs:    make([]*Encoder, numWorkers),
		parts:   make([][]segio.Part, numWorkers),
	}
	for i := range l.writers {
		l.writers[i] = segio.NewWriter(fs, msgLogDir, fmt.Sprintf("worker_%02d", i), msgLogSegmentSize, nil)
		l.encs[i] = NewEncoder()
	}
	return l
}

// appendLogCRC seals a frame payload with its checksum: CRC32 (IEEE)
// of everything encoded so far, appended as 4 little-endian raw bytes.
func appendLogCRC(e *Encoder) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc32.ChecksumIEEE(e.Bytes()))
	e.PutRaw(b[:])
}

// logSuperstep persists superstep `step`'s outgoing batches and
// mutation requests, one goroutine per sending worker, and flushes
// every lane so the log is durable at the barrier. It must run after
// the worker phase and before integrateMissing merges the lanes away.
// Returns the logical messages and bytes appended; on any error the
// log is marked broken (future recoveries fall back to checkpoints)
// but the job continues.
func (l *msgLog) logSuperstep(step int, store *messageStore, results []workerResult) (int64, int64, error) {
	msgs := make([]int64, len(l.writers))
	bytes := make([]int64, len(l.writers))
	errs := make([]error, len(l.writers))
	var wg sync.WaitGroup
	for sender := range l.writers {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			w, e := l.writers[sender], l.encs[sender]
			var box Value // rows are encoded through one scratch box
			if store.scalar != 0 {
				box = store.scalar.box(0)
			}
			fail := func(err error) {
				if errs[sender] == nil {
					errs[sender] = err
				}
			}
			for dest := range store.lanes[sender] {
				for _, b := range store.lanes[sender][dest].batches {
					e.Reset()
					e.PutRaw([]byte{msgLogFrameMessages})
					e.PutUvarint(uint64(step))
					e.PutUvarint(uint64(dest))
					n := len(b.entries) + len(b.rows) // one of the two is empty
					e.PutUvarint(uint64(n))
					for _, ent := range b.entries {
						e.PutVarint(int64(ent.to))
						EncodeTyped(e, ent.msg)
					}
					for _, r := range b.rows {
						e.PutVarint(int64(r.to))
						store.scalar.setBox(box, r.bits)
						EncodeTyped(e, box)
					}
					appendLogCRC(e)
					ent := segio.Entry{Kind: msgLogFrameMessages, Step: step, ID: int64(dest)}
					if err := w.AppendRecord(e.Bytes(), ent); err != nil {
						fail(err)
					}
					msgs[sender] += int64(n)
					bytes[sender] += int64(e.Len())
				}
			}
			res := &results[sender]
			if len(res.removals) > 0 || len(res.additions) > 0 {
				e.Reset()
				e.PutRaw([]byte{msgLogFrameMutations})
				e.PutUvarint(uint64(step))
				e.PutUvarint(uint64(len(res.removals)))
				for _, id := range res.removals {
					e.PutVarint(int64(id))
				}
				e.PutUvarint(uint64(len(res.additions)))
				for _, add := range res.additions {
					e.PutVarint(int64(add.id))
					e.PutBool(add.value != nil)
					if add.value != nil {
						EncodeTyped(e, add.value)
					}
				}
				appendLogCRC(e)
				ent := segio.Entry{Kind: msgLogFrameMutations, Step: step, ID: -1}
				if err := w.AppendRecord(e.Bytes(), ent); err != nil {
					fail(err)
				}
				bytes[sender] += int64(e.Len())
			}
			part, err := w.Flush()
			if err != nil {
				fail(err)
			}
			if len(part.Segments) > 0 {
				l.parts[sender] = append(l.parts[sender], part)
			}
		}(sender)
	}
	wg.Wait()
	var totalMsgs, totalBytes int64
	var firstErr error
	for i := range l.writers {
		totalMsgs += msgs[i]
		totalBytes += bytes[i]
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		l.broken = true
	}
	return totalMsgs, totalBytes, firstErr
}

// gc prunes log segments that only hold frames older than
// oldestNeeded — the oldest retained checkpoint's superstep, below
// which no recovery can ever need to replay. Best-effort: a failed
// prune leaves extra segments behind, never a hole.
func (l *msgLog) gc(oldestNeeded int) {
	for i, w := range l.writers {
		l.parts[i], _ = w.Prune(l.parts[i], func(seg segio.SegmentIndex) bool {
			for _, ent := range seg.Entries {
				if ent.Step >= oldestNeeded {
					return true
				}
			}
			return false
		})
	}
}

// loggedBatch is one decoded messages frame: the entries one sender
// flushed toward one destination partition, in send order.
type loggedBatch struct {
	dest     int
	rawBytes int64
	entries  []msgEntry
}

// loggedStep is the decoded outbox log of one superstep: per-sender
// message batches in log-append order (sender-major iteration over
// these reproduces mergeLane's deterministic combine order) plus the
// mutation requests, kept per sender so a re-logged group can replace
// exactly one sender's contribution.
type loggedStep struct {
	batches         [][]loggedBatch // [sender][i], in that sender's log order
	senderRemovals  [][]VertexID
	senderAdditions [][]vertexAddition
}

// mutations folds the per-sender mutation requests in worker order —
// the same concatenation order applyMutations sees in a live barrier.
func (st *loggedStep) mutations() (removals []VertexID, additions []vertexAddition) {
	for sender := range st.senderRemovals {
		removals = append(removals, st.senderRemovals[sender]...)
		additions = append(additions, st.senderAdditions[sender]...)
	}
	return removals, additions
}

// loadLoggedSteps reads and CRC-verifies every frame for supersteps
// lo..hi from the segment files on disk (via the in-memory sealed
// indexes — recovery runs in-process, so the writers know exactly
// which segments exist). Any unreadable or corrupt frame fails the
// whole load: a log that cannot prove completeness must not drive a
// replay.
//
// A superstep can appear in a lane more than once: after a checkpoint
// restart the rewound supersteps are re-logged. Frames of one
// execution are contiguous, so the last group per (sender, superstep)
// wins — it is the execution the engine's current state descends from.
func (l *msgLog) loadLoggedSteps(lo, hi int) (map[int]*loggedStep, error) {
	numWorkers := len(l.writers)
	steps := make(map[int]*loggedStep)
	get := func(t int) *loggedStep {
		st := steps[t]
		if st == nil {
			st = &loggedStep{
				batches:         make([][]loggedBatch, numWorkers),
				senderRemovals:  make([][]VertexID, numWorkers),
				senderAdditions: make([][]vertexAddition, numWorkers),
			}
			steps[t] = st
		}
		return st
	}
	for sender, w := range l.writers {
		prevStep := -1
		for _, part := range l.parts[sender] {
			for _, seg := range part.Segments {
				var raw []byte
				for _, ent := range seg.Entries {
					if ent.Step != prevStep {
						// New contiguous group for this superstep: discard
						// anything an earlier (pre-restart) execution of the
						// same superstep logged in this lane.
						if ent.Step >= lo && ent.Step <= hi {
							st := get(ent.Step)
							st.batches[sender] = nil
							st.senderRemovals[sender] = nil
							st.senderAdditions[sender] = nil
						}
						prevStep = ent.Step
					}
					if ent.Step < lo || ent.Step > hi {
						continue
					}
					if raw == nil {
						var err error
						raw, err = dfs.ReadFile(l.fs, w.Path(seg.Name))
						if err != nil {
							return nil, fmt.Errorf("pregel: outbox log segment %s: %w", seg.Name, err)
						}
						if err := segio.CheckSegment(raw); err != nil {
							return nil, fmt.Errorf("pregel: outbox log segment %s: %w", seg.Name, err)
						}
					}
					if ent.Offset < 0 || ent.Offset+ent.Length > len(raw) {
						return nil, fmt.Errorf("pregel: outbox log segment %s: entry out of range", seg.Name)
					}
					if err := decodeLogFrame(raw[ent.Offset:ent.Offset+ent.Length], sender, get(ent.Step)); err != nil {
						return nil, fmt.Errorf("pregel: outbox log segment %s: %w", seg.Name, err)
					}
				}
			}
		}
	}
	return steps, nil
}

// decodeLogFrame verifies one frame's CRC and folds its content into
// the superstep's decoded state.
func decodeLogFrame(payload []byte, sender int, st *loggedStep) error {
	if len(payload) < 5 {
		return fmt.Errorf("outbox frame too short (%d bytes)", len(payload))
	}
	body := payload[:len(payload)-4]
	want := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return fmt.Errorf("outbox frame checksum mismatch")
	}
	kind := body[0]
	d := NewDecoder(body[1:])
	switch kind {
	case msgLogFrameMessages:
		d.Uvarint() // superstep, already known from the index
		dest := int(d.Uvarint())
		n := int(d.Uvarint())
		b := loggedBatch{dest: dest, rawBytes: int64(len(payload)), entries: make([]msgEntry, 0, n)}
		for i := 0; i < n; i++ {
			to := VertexID(d.Varint())
			v, err := DecodeTyped(d)
			if err != nil {
				return err
			}
			b.entries = append(b.entries, msgEntry{to: to, msg: v})
		}
		if d.Err() != nil {
			return d.Err()
		}
		st.batches[sender] = append(st.batches[sender], b)
	case msgLogFrameMutations:
		d.Uvarint() // superstep
		nRem := int(d.Uvarint())
		removals := make([]VertexID, 0, nRem)
		for i := 0; i < nRem; i++ {
			removals = append(removals, VertexID(d.Varint()))
		}
		nAdd := int(d.Uvarint())
		additions := make([]vertexAddition, 0, nAdd)
		for i := 0; i < nAdd; i++ {
			id := VertexID(d.Varint())
			var val Value
			if d.Bool() {
				var err error
				val, err = DecodeTyped(d)
				if err != nil {
					return err
				}
			}
			additions = append(additions, vertexAddition{id: id, value: val})
		}
		if d.Err() != nil {
			return d.Err()
		}
		st.senderRemovals[sender] = removals
		st.senderAdditions[sender] = additions
	default:
		return fmt.Errorf("outbox frame has unknown kind %d", kind)
	}
	return nil
}
