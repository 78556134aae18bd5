package trace

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// FormatSegments marks jobs written through Store.NewSink: segment
// files plus index parts. It is the only layout Store.OpenReader reads;
// a job.meta without it is a whole-file trace from an older build.
const FormatSegments = "segments/v1"

// DefaultSegmentSize is the size past which a lane seals its open
// segment; every barrier seals it too.
const DefaultSegmentSize = 256 << 10

// laneBatchSize is how many records a lane frames between checks of
// its open segment's size, so a segment seals after a whole batch of
// records or at a barrier.
const laneBatchSize = 64

// RecordSink accepts capture records for one lane (one worker, or the
// master). A lane is single-producer: each worker sink is used only by
// its worker goroutine, the master sink only by the engine
// coordinator. The reference *Writer satisfies this interface too.
//
// A record is fully encoded to bytes before Write* returns and the sink
// keeps no reference to it or to anything it points at. A caller may
// therefore pass live values (a vertex's current value, the engine's
// message slice) without cloning them, and reuse the record and its
// slices as soon as the call returns. A storage failure while writing
// is not the caller's: Write* still returns nil, and the loss shows in
// Sink.DroppedRecords and Sink.Err.
type RecordSink interface {
	WriteVertexCapture(*VertexCapture) error
	// WriteVertexFrame writes a vertex capture whose snapshot-sensitive
	// pieces are already bytes; the record stored is the one
	// WriteVertexCapture stores for the equivalent VertexCapture.
	WriteVertexFrame(*VertexFrame) error
	WriteMasterCapture(*MasterCapture) error
	WriteSuperstepMeta(*SuperstepMeta) error
	WriteSubgraphCapture(*SubgraphCapture) error
}

// Sink is the write half of the trace API: one record sink per lane,
// each framing records on the goroutine that captures them and writing
// them into indexed segment files. Create one with Store.NewSink.
//
// Lifecycle: WorkerSink/MasterSink during the run, BarrierFlush at
// every superstep barrier (seals open segments and appends an index
// part per lane, making everything so far durable), CloseFiles once the job
// stops, Finish to write the job result.
type Sink interface {
	// WorkerSink returns lane i's record sink.
	WorkerSink(i int) RecordSink
	// MasterSink returns the master/meta lane's record sink.
	MasterSink() RecordSink
	// BarrierFlush commits all records written before it was called.
	// Called on the engine coordinator at each superstep barrier.
	BarrierFlush(superstep int) error
	// DroppedRecords returns how many records the sink lost: segments
	// that storage failed to commit, plus records that did not encode.
	DroppedRecords() int64
	// Err returns the first structural write failure (a segment or
	// index that could not be committed), if any.
	Err() error
	// CloseFiles commits every remaining segment and index. Idempotent.
	CloseFiles() error
	// Finish closes the files and writes the job result.
	Finish(res JobResult) error
}

// NewSink writes the job manifest and returns a Sink for the job's
// NumWorkers+1 lanes. Records land in segmented, indexed files
// (FormatSegments) that Store.OpenReader can seek into lazily.
func (s *Store) NewSink(meta JobMeta) (Sink, error) {
	return s.newSink(meta, DefaultSegmentSize, laneBatchSize)
}

// newSink is NewSink with the segment size and batch size that tests
// shrink.
func (s *Store) newSink(meta JobMeta, segmentSize, batchSize int) (*jobSink, error) {
	if meta.JobID == "" {
		return nil, fmt.Errorf("trace: empty job ID")
	}
	if meta.NumWorkers <= 0 {
		return nil, fmt.Errorf("trace: job %q has %d workers", meta.JobID, meta.NumWorkers)
	}
	meta.Format = FormatSegments
	dir := s.jobDir(meta.JobID)
	metaJSON, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := dfs.WriteFile(s.FS, dir+"/job.meta", metaJSON); err != nil {
		return nil, err
	}
	js := &jobSink{store: s, dir: dir, segmentSize: segmentSize, batchSize: batchSize,
		lanes: make([]sinkLane, meta.NumWorkers+1)}
	for i := range js.lanes {
		l := &js.lanes[i]
		l.sink, l.name, l.seg = js, "master", []byte(segMagic)
		if i < meta.NumWorkers {
			l.name = fmt.Sprintf("worker_%02d", i)
		}
	}
	return js, nil
}

type jobSink struct {
	store *Store
	dir   string // the job directory
	// segmentSize is the size past which a lane seals its open segment,
	// checked once every batchSize records.
	segmentSize, batchSize int
	// lanes[0..n-1] are the workers, lanes[n] is the master: one array
	// of padded lanes, so no two lanes' producers write the same line.
	lanes   []sinkLane
	dropped atomic.Int64

	errMu    sync.Mutex
	firstErr error

	filesClosed bool
	closeErr    error
	finished    bool
}

func (js *jobSink) WorkerSink(i int) RecordSink { return &js.lanes[i] }
func (js *jobSink) MasterSink() RecordSink      { return &js.lanes[len(js.lanes)-1] }

func (js *jobSink) DroppedRecords() int64 { return js.dropped.Load() }

func (js *jobSink) Err() error {
	js.errMu.Lock()
	defer js.errMu.Unlock()
	return js.firstErr
}

func (js *jobSink) recordErr(err error) {
	js.errMu.Lock()
	if js.firstErr == nil {
		js.firstErr = err
	}
	js.errMu.Unlock()
}

// BarrierFlush flushes every lane, each on a goroutine of its own for
// the length of the flush: when it returns, every record written before
// the barrier is sealed into a committed segment and indexed. It
// returns the first failure in lane order.
func (js *jobSink) BarrierFlush(superstep int) error {
	_ = superstep // reserved: per-superstep flush bookkeeping
	errs := make([]error, len(js.lanes))
	var wg sync.WaitGroup
	for i := range js.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = js.lanes[i].flush()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			js.recordErr(err)
			return err
		}
	}
	return nil
}

// CloseFiles is the final barrier flush; the engine has stopped, so no
// lane has a live producer.
func (js *jobSink) CloseFiles() error {
	if !js.filesClosed {
		js.filesClosed = true
		js.closeErr = js.BarrierFlush(-1)
	}
	return js.closeErr
}

func (js *jobSink) Finish(res JobResult) error {
	if js.finished {
		return nil
	}
	js.finished = true
	if err := js.CloseFiles(); err != nil {
		return err
	}
	resJSON, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return dfs.WriteFile(js.store.FS, js.dir+"/job.done", resJSON)
}

// sinkLane is one worker's (or the master's) record sink and the
// writer of its lane's segments and index parts.
//
// The producer frames each record at the source straight into the open
// segment and, once every batchSize records, seals the segment if it
// has passed the size threshold. A barrier's flush seals whatever is
// open and commits one index part naming the segments sealed since the
// previous part. mu is held by the lane's producer and by BarrierFlush;
// in the engine the two never overlap, since the barrier runs after the
// workers have stopped computing.
//
// Everything the producer writes per record is inside the lane, its
// encoder included, and the pad keeps it 128 bytes (an adjacent-line
// prefetch pair) from the next lane's: two workers capturing at once
// write no common cache line.
type sinkLane struct {
	sink *jobSink
	name string // the lane's directory, relative to the job's

	mu  sync.Mutex
	e   pregel.Encoder // payload scratch
	seg []byte         // the open segment, magic included
	// ents is the lane's one entries array: the pending segments'
	// entries, then the open segment's from ents[open:]. A committed
	// part truncates it to zero, so a lane regrows no array per segment.
	ents []indexEntry
	open int
	// unchecked counts the records framed since the size was last
	// checked.
	unchecked int
	// pending holds the segments sealed since the last committed part,
	// their Entries sub-slices of ents: the watermark a failed part
	// write leaves for the next flush.
	pending []segmentIndex
	idx     []byte // part encoding scratch
	segSeq  int
	partSeq int
	_       [128]byte
}

// submit frames one record into the open segment.
func (l *sinkLane) submit(rec any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.e.Reset()
	if err := encodeRecordPayload(&l.e, rec); err != nil {
		// An unencodable record is the caller's error; it is counted as
		// lost alongside the structural failures.
		l.sink.dropped.Add(1)
		l.sink.recordErr(err)
		return err
	}
	payload := l.e.Bytes()
	l.seg = binary.AppendUvarint(l.seg, uint64(len(payload)))
	ent := entryFor(rec, payload)
	ent.Offset = len(l.seg)
	l.seg = append(l.seg, payload...)
	l.ents = append(l.ents, ent)
	if l.unchecked++; l.unchecked >= l.sink.batchSize {
		l.unchecked = 0
		if len(l.seg) >= l.sink.segmentSize {
			// A failed seal is the store's failure, not the producer's:
			// seal counts the lost records and Err keeps the error.
			if err := l.seal(); err != nil {
				l.sink.recordErr(err)
			}
		}
	}
	return nil
}

// seal commits the open segment as its own file; an empty one costs no
// file. A segment that cannot be committed is discarded and its records
// counted in DroppedRecords, so a failing store never grows the buffer
// without bound. Caller holds l.mu.
func (l *sinkLane) seal() error {
	l.unchecked = 0
	n := len(l.ents)
	if n == l.open {
		return nil
	}
	name := fmt.Sprintf("%s/seg_%06d.seg", l.name, l.segSeq)
	err := dfs.WriteFile(l.sink.store.FS, l.sink.dir+"/"+name, l.seg)
	if err != nil {
		l.sink.dropped.Add(int64(n - l.open))
		l.ents = l.ents[:l.open]
	} else {
		l.pending = append(l.pending, segmentIndex{Name: name, Entries: l.ents[l.open:n:n]})
		l.open = n
		l.segSeq++
	}
	l.seg = append(l.seg[:0], segMagic...)
	return err
}

// flush seals the open segment and commits one index part naming the
// segments sealed since the previous part; with nothing new it writes
// no file. A segment is committed before the part that names it. If the
// part cannot be written its segments stay pending — durable, found by
// a reader's segment scan — and the next flush's part names them. A
// failed seal is reported with the part still written for the segments
// before it.
func (l *sinkLane) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.seal()
	if len(l.pending) == 0 {
		return err
	}
	name := fmt.Sprintf("%s/idx_%06d.idx", l.name, l.partSeq)
	l.idx = appendIndex(l.idx[:0], l.pending)
	if ierr := dfs.WriteFile(l.sink.store.FS, l.sink.dir+"/"+name, l.idx); ierr != nil {
		if err == nil {
			err = ierr
		}
		return err
	}
	l.partSeq++
	l.pending = l.pending[:0]
	l.ents, l.open = l.ents[:0], 0
	return err
}

func (l *sinkLane) WriteVertexCapture(c *VertexCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteVertexFrame(f *VertexFrame) error         { return l.submit(f) }
func (l *sinkLane) WriteMasterCapture(c *MasterCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteSuperstepMeta(m *SuperstepMeta) error     { return l.submit(m) }
func (l *sinkLane) WriteSubgraphCapture(c *SubgraphCapture) error { return l.submit(c) }
