package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// FormatSegments marks jobs written through Store.NewSink: segment
// files plus index parts. It is the only layout Store.OpenReader reads;
// a job.meta without it is a whole-file trace from an older build.
const FormatSegments = "segments/v1"

// DefaultSegmentSize is the size past which a lane seals its open
// segment; every barrier seals it too.
const DefaultSegmentSize = 256 << 10

// laneBatchSize is how many framed records a lane accumulates before
// appending them to its open segment. The size check runs once per
// batch, so a segment seals after a whole batch or at a barrier.
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
	js := &jobSink{store: s, jobID: meta.JobID, batchSize: batchSize}
	for i := 0; i <= meta.NumWorkers; i++ {
		name := "master"
		if i < meta.NumWorkers {
			name = fmt.Sprintf("worker_%02d", i)
		}
		js.lanes = append(js.lanes, &sinkLane{
			sink: js,
			sw:   segio.NewWriter(s.FS, dir, name, segmentSize, func(n int) { js.dropped.Add(int64(n)) }),
			e:    pregel.NewEncoder(),
			hdr:  pregel.NewEncoder(),
		})
	}
	return js, nil
}

type jobSink struct {
	store     *Store
	jobID     string
	batchSize int
	// lanes[0..n-1] are the workers, lanes[n] is the master.
	lanes   []*sinkLane
	dropped atomic.Int64

	errMu    sync.Mutex
	firstErr error

	filesClosed bool
	closeErr    error
	finished    bool
}

func (js *jobSink) WorkerSink(i int) RecordSink { return js.lanes[i] }
func (js *jobSink) MasterSink() RecordSink      { return js.lanes[len(js.lanes)-1] }

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
	for i, l := range js.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.flush()
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
	return dfs.WriteFile(js.store.FS, js.store.jobDir(js.jobID)+"/job.done", resJSON)
}

// sinkLane is one worker's (or the master's) record sink: its segment
// writer plus the batch of framed records not yet appended to it.
//
// The producer frames each record at the source, into the batch, and
// appends a full batch to the open segment itself, sealing the segment
// inline once it passes the size threshold. mu is held by the lane's
// producer and by BarrierFlush; in the engine the two never overlap,
// since the barrier runs after the workers have stopped computing.
type sinkLane struct {
	sink *jobSink

	mu      sync.Mutex
	sw      *segio.Writer
	e, hdr  *pregel.Encoder
	buf     bytes.Buffer
	entries []segio.Entry
}

// submit frames one record into the lane's batch, appending the batch
// to the open segment when it fills.
func (l *sinkLane) submit(rec any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ent, err := encodeFrame(l.e, l.hdr, &l.buf, rec)
	if err != nil {
		// An unencodable record is the caller's error; it is counted as
		// lost alongside the structural failures.
		l.sink.dropped.Add(1)
		l.sink.recordErr(err)
		return err
	}
	l.entries = append(l.entries, ent)
	if len(l.entries) >= l.sink.batchSize {
		l.appendLocked()
	}
	return nil
}

// appendLocked moves the batch into the open segment. A seal that
// fails is the store's failure, not the producer's: the segment writer
// counts the lost segment's records, Err keeps the error, and the job
// goes on. Caller holds l.mu.
func (l *sinkLane) appendLocked() {
	if err := l.sw.AppendFramed(l.buf.Bytes(), l.entries); err != nil {
		l.sink.recordErr(err)
	}
	l.buf.Reset()
	l.entries = l.entries[:0]
}

// flush appends the partial batch, seals the open segment and commits
// the lane's next index part. The part itself is not kept: only a
// reader needs the index, and it loads the files.
func (l *sinkLane) flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked()
	_, err := l.sw.Flush()
	return err
}

func (l *sinkLane) WriteVertexCapture(c *VertexCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteVertexFrame(f *VertexFrame) error         { return l.submit(f) }
func (l *sinkLane) WriteMasterCapture(c *MasterCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteSuperstepMeta(m *SuperstepMeta) error     { return l.submit(m) }
func (l *sinkLane) WriteSubgraphCapture(c *SubgraphCapture) error { return l.submit(c) }
