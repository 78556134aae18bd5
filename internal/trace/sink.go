package trace

import (
	"bytes"
	"encoding/json"
	"errors"
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

// BackpressurePolicy decides what a full capture queue does to the
// compute goroutine that is writing a record.
type BackpressurePolicy uint8

const (
	// Block waits for queue space: full capture fidelity, deterministic
	// record streams, at the cost of stalling compute when storage
	// falls behind.
	Block BackpressurePolicy = iota
	// Drop discards the record and counts it in DroppedRecords:
	// compute never stalls on the trace store, at the cost of holes in
	// the capture.
	Drop
)

func (p BackpressurePolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	}
	return fmt.Sprintf("BackpressurePolicy(%d)", uint8(p))
}

// Defaults for Store.NewSink.
const (
	DefaultSegmentSize   = 256 << 10
	DefaultQueueCapacity = 1024
)

// laneBatchSize is how many records a lane accumulates before handing
// them to its drainer in one queue message. Batching is what keeps the
// per-record pipeline cost to an append: one queue operation then pays
// for a whole batch.
const laneBatchSize = 64

// ErrInvalidOption is the sentinel wrapped by NewSink failures on
// contradictory sink options (negative capacities and sizes), so
// callers can branch with errors.Is while the message names the
// offending option. A zero value always means "use the default".
var ErrInvalidOption = errors.New("trace: invalid sink option")

type sinkOptions struct {
	segmentSize int
	queueCap    int
	batchSize   int // laneBatchSize, except in tests that shrink it
	policy      BackpressurePolicy
	synchronous bool
}

// validate rejects explicitly negative capacities — historically they
// were silently coerced to the defaults, which hid typos like a
// miscomputed queue size.
func (o *sinkOptions) validate() error {
	if o.segmentSize < 0 {
		return fmt.Errorf("%w: segment size = %d, must be >= 0 (0 means the default)", ErrInvalidOption, o.segmentSize)
	}
	if o.queueCap < 0 {
		return fmt.Errorf("%w: queue capacity = %d, must be >= 0 (0 means the default)", ErrInvalidOption, o.queueCap)
	}
	if o.segmentSize == 0 {
		o.segmentSize = DefaultSegmentSize
	}
	if o.queueCap == 0 {
		o.queueCap = DefaultQueueCapacity
	}
	if o.batchSize == 0 {
		o.batchSize = laneBatchSize
	}
	return nil
}

// Option configures a Sink created by Store.NewSink.
type Option func(*sinkOptions)

// WithSegmentSize sets the target segment file size in bytes; a
// segment seals once it passes this threshold (and at every barrier).
// 0 keeps the default; negative values make NewSink fail with
// ErrInvalidOption.
func WithSegmentSize(bytes int) Option {
	return func(o *sinkOptions) { o.segmentSize = bytes }
}

// WithQueueCapacity sets each lane's bounded record-queue capacity,
// in records. 0 keeps the default; negative values make NewSink fail
// with ErrInvalidOption.
func WithQueueCapacity(n int) Option {
	return func(o *sinkOptions) { o.queueCap = n }
}

// WithBackpressure selects what a full queue does: Block (default) or
// Drop.
func WithBackpressure(p BackpressurePolicy) Option {
	return func(o *sinkOptions) { o.policy = p }
}

// WithSynchronous disables the background drainers: records are
// encoded and segments sealed inline on the calling goroutine. The
// capture-overhead benchmark's baseline, and a debugging aid.
func WithSynchronous() Option {
	return func(o *sinkOptions) { o.synchronous = true }
}

// RecordSink accepts capture records for one lane (one worker, or the
// master). A lane is single-producer: each worker sink is used only by
// its worker goroutine, the master sink only by the engine
// coordinator. The reference *Writer satisfies this interface too.
//
// A record is fully encoded to bytes before Write* returns and the sink
// keeps no reference to it or to anything it points at — in the
// asynchronous pipeline as much as under WithSynchronous, since the
// producer frames at the source and only bytes are queued. A caller may
// therefore pass live values (a vertex's current value, the engine's
// message slice) without cloning them, and reuse the record and its
// slices as soon as the call returns.
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

// Sink is the write half of the redesigned trace API: per-lane record
// sinks backed by bounded queues and background drainers that batch
// records into indexed segment files. Create one with Store.NewSink.
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
	// BarrierFlush drains the lanes and commits all records accepted
	// before it was called. Called on the engine coordinator at each
	// superstep barrier.
	BarrierFlush(superstep int) error
	// QueueDepth returns the records currently queued across lanes.
	QueueDepth() int
	// DroppedRecords returns how many records the sink discarded: Drop
	// backpressure plus segments lost to storage failure.
	DroppedRecords() int64
	// Err returns the first structural write failure (a segment or
	// index that could not be committed), if any.
	Err() error
	// CloseFiles stops the drainers and commits every remaining
	// segment and index. Idempotent.
	CloseFiles() error
	// Finish closes the files and writes the job result.
	Finish(res JobResult) error
}

// NewSink writes the job manifest and returns a Sink for the job's
// NumWorkers+1 lanes. Records land in segmented, indexed files
// (FormatSegments) that Store.OpenReader can seek into lazily.
func (s *Store) NewSink(meta JobMeta, opts ...Option) (Sink, error) {
	if meta.JobID == "" {
		return nil, fmt.Errorf("trace: empty job ID")
	}
	if meta.NumWorkers <= 0 {
		return nil, fmt.Errorf("trace: job %q has %d workers", meta.JobID, meta.NumWorkers)
	}
	opt := sinkOptions{policy: Block}
	for _, o := range opts {
		o(&opt)
	}
	if err := opt.validate(); err != nil {
		return nil, err
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
	js := &jobSink{store: s, jobID: meta.JobID, opt: opt}
	for i := 0; i <= meta.NumWorkers; i++ {
		name := "master"
		if i < meta.NumWorkers {
			name = fmt.Sprintf("worker_%02d", i)
		}
		l := &sinkLane{
			sink: js,
			sw:   newSegmentWriter(s.FS, dir, name, opt.segmentSize, &js.dropped),
			e:    pregel.NewEncoder(),
			hdr:  pregel.NewEncoder(),
			cur:  &laneBatch{},
		}
		if !opt.synchronous {
			// The queue capacity is in records; the channel holds batches.
			depth := opt.queueCap / opt.batchSize
			if depth < 1 {
				depth = 1
			}
			l.ch = make(chan *laneBatch, depth)
			l.ack = make(chan error, 1)
			l.free = make(chan *laneBatch, depth+1)
			l.done = make(chan struct{})
			go l.drain()
		}
		js.lanes = append(js.lanes, l)
	}
	return js, nil
}

type jobSink struct {
	store *Store
	jobID string
	opt   sinkOptions
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

func (js *jobSink) QueueDepth() int {
	n := 0
	for _, l := range js.lanes {
		if l.ch == nil {
			continue
		}
		n += int(l.queued.Load())
		l.mu.Lock()
		n += len(l.cur.entries)
		l.mu.Unlock()
	}
	return n
}

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

// BarrierFlush fans a flush token out to every lane and waits for all
// of them: when it returns, every record accepted before the barrier
// is sealed into a committed segment and indexed.
func (js *jobSink) BarrierFlush(superstep int) error {
	_ = superstep // reserved: per-superstep flush bookkeeping
	if js.opt.synchronous {
		var first error
		for _, l := range js.lanes {
			if err := l.sw.flush(); err != nil && first == nil {
				first = err
			}
		}
		if first != nil {
			js.recordErr(first)
		}
		return first
	}
	for _, l := range js.lanes {
		l.mu.Lock()
		l.sendLocked() // push the partial batch ahead of the token
		l.mu.Unlock()
		l.ch <- nil // flush token
	}
	var first error
	for _, l := range js.lanes {
		if err := <-l.ack; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		js.recordErr(first)
	}
	return first
}

// CloseFiles stops the drainers (the engine has stopped, so no lane
// has a live producer) and commits every remaining segment and index.
func (js *jobSink) CloseFiles() error {
	if js.filesClosed {
		return js.closeErr
	}
	js.filesClosed = true
	for _, l := range js.lanes {
		if l.ch != nil {
			l.mu.Lock()
			l.sendLocked()
			l.mu.Unlock()
			close(l.ch)
		}
	}
	var first error
	for _, l := range js.lanes {
		if l.done != nil {
			<-l.done
		}
		if err := l.sw.flush(); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		js.recordErr(first)
	}
	js.closeErr = first
	return first
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

// laneBatch is a reusable batch of pre-framed records: frames as laid
// out by encodeFrame plus their index entries. Batches cycle between
// the producer and the drainer through the lane's free list, so a
// steady-state pipeline allocates nothing per batch.
type laneBatch struct {
	buf     bytes.Buffer
	entries []segio.Entry
}

func (b *laneBatch) reset() {
	b.buf.Reset()
	b.entries = b.entries[:0]
}

// sinkLane is one worker's (or the master's) capture queue plus the
// segment writer its drainer goroutine owns. In synchronous mode ch is
// nil and the producer goroutine drives the segment writer directly.
//
// The producer frames records at the source: submit encodes into the
// lane's batch buffer under mu, and a full batch goes to the drainer
// as one queue message of flat bytes plus scalar index entries. That
// keeps the per-record pipeline cost to an encode (which the
// synchronous path pays anyway), amortizes the channel hop over
// batchSize records, and — because queued batches hold no pointers —
// adds nothing to garbage-collector mark work, unlike queueing the
// capture objects themselves. mu is held by the lane's producer and by
// BarrierFlush/CloseFiles pushing the partial batch; the drainer never
// takes it.
type sinkLane struct {
	sink *jobSink
	sw   *segmentWriter
	// ch carries full batches to the drainer; a nil batch is a flush
	// token, acknowledged on ack once everything before it is sealed and
	// indexed.
	ch chan *laneBatch
	// BarrierFlush has one caller (the coordinator) and at most one
	// token per lane in flight, so one buffered slot per lane serves
	// every barrier.
	ack  chan error
	done chan struct{}
	// free recycles consumed batches from the drainer back to the
	// producer.
	free chan *laneBatch

	mu     sync.Mutex
	e, hdr *pregel.Encoder
	cur    *laneBatch
	// queued counts records handed to the channel and not yet applied
	// by the drainer, for QueueDepth.
	queued atomic.Int64
}

// drain is the lane's background writer: it applies batches in arrival
// order and answers flush tokens, so a token sent after a set of
// records acknowledges only once those records are sealed.
func (l *sinkLane) drain() {
	defer close(l.done)
	for b := range l.ch {
		if b == nil {
			l.ack <- l.sw.flush()
			continue
		}
		// Drop accounting happens inside the segment writer: a failed
		// seal counts every record of the discarded segment.
		if err := l.sw.w.AppendFramed(b.buf.Bytes(), b.entries); err != nil {
			l.sink.recordErr(err)
		}
		l.queued.Add(int64(-len(b.entries)))
		b.reset()
		select {
		case l.free <- b:
		default:
		}
	}
}

// submit frames one record into the lane's batch, handing the batch to
// the drainer (under the backpressure policy) when it fills.
func (l *sinkLane) submit(rec any) error {
	if l.ch == nil {
		if err := l.sw.append(rec); err != nil {
			l.sink.recordErr(err)
			return err
		}
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ent, err := encodeFrame(l.e, l.hdr, &l.cur.buf, rec)
	if err != nil {
		// An unencodable record is an error, not backpressure; it is
		// counted as lost alongside the structural failure.
		l.sink.dropped.Add(1)
		l.sink.recordErr(err)
		return err
	}
	l.cur.entries = append(l.cur.entries, ent)
	if len(l.cur.entries) >= l.sink.opt.batchSize {
		l.sendLocked()
	}
	return nil
}

// sendLocked hands the accumulated batch to the drainer, applying the
// backpressure policy, and installs a recycled (or fresh) batch as the
// current one. Caller holds l.mu; under Block the send can stall until
// the drainer frees a slot, which is the policy's point.
func (l *sinkLane) sendLocked() {
	b := l.cur
	if len(b.entries) == 0 {
		return
	}
	if l.sink.opt.policy == Drop {
		select {
		case l.ch <- b:
			l.queued.Add(int64(len(b.entries)))
		default:
			// Queue full: the whole batch is dropped, and its storage
			// is immediately reusable.
			l.sink.dropped.Add(int64(len(b.entries)))
			b.reset()
			return
		}
	} else {
		l.queued.Add(int64(len(b.entries)))
		l.ch <- b
	}
	select {
	case l.cur = <-l.free:
	default:
		l.cur = &laneBatch{}
	}
}

func (l *sinkLane) WriteVertexCapture(c *VertexCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteVertexFrame(f *VertexFrame) error         { return l.submit(f) }
func (l *sinkLane) WriteMasterCapture(c *MasterCapture) error     { return l.submit(c) }
func (l *sinkLane) WriteSuperstepMeta(m *SuperstepMeta) error     { return l.submit(m) }
func (l *sinkLane) WriteSubgraphCapture(c *SubgraphCapture) error { return l.submit(c) }
