package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// Graft is one attached debugging session: it selects capture targets,
// instruments the computations, listens to the job and writes trace
// files. Attach it to exactly one job run.
//
// Wiring (the root graft package bundles these steps):
//
//	g, _ := core.Attach(store, opts, graph, debugConfig)
//	comp = g.Instrument(comp)
//	cfg.Master = g.InstrumentMaster(cfg.Master)
//	cfg.Listener = g // or g.Chain(existing)
type Graft struct {
	cfg   DebugConfig
	jobID string
	store *trace.Store
	sink  trace.Sink
	// workerSinks/masterSink cache the per-lane handles so the capture
	// hot path is one slice load away from the queue.
	workerSinks []trace.RecordSink
	masterSink  trace.RecordSink
	reasons     map[pregel.VertexID]trace.Reason
	// rcs holds one reusable recording context per worker: a worker
	// executes its vertices sequentially, so per-compute-call state can
	// be recycled instead of allocated, keeping the instrumentation
	// overhead near the paper's.
	rcs []recordingContext
	// capNanos accumulates per-worker time spent in capture
	// instrumentation. Slots are cache-line padded: each worker writes
	// only its own, the engine reads it at the barrier
	// (pregel.CaptureTimeReporter).
	capNanos []paddedNanos

	captures atomic.Int64
	limitHit atomic.Bool

	writeMu  sync.Mutex // serializes error recording only
	writeErr error

	inner pregel.JobListener
	start time.Time
	ctx   context.Context
}

// Options identifies the job being debugged.
type Options struct {
	// JobID names the trace directory; must be unique per run.
	JobID string
	// Algorithm is a human-readable computation name for the GUI.
	Algorithm string
	// Description optionally describes the run (dataset, parameters).
	Description string
	// NumWorkers must match the pregel.Config the job will run with.
	NumWorkers int
	// ComputeMode records how the job dispatches compute ("vertex" or
	// "subgraph"); it lands in the trace manifest so `graft repro`
	// generates the matching harness. Empty means vertex.
	ComputeMode string
	// Trace configures the capture pipeline (trace.WithSegmentSize,
	// trace.WithBackpressure, trace.WithQueueCapacity,
	// trace.WithSynchronous). The default is the asynchronous pipeline
	// with Block backpressure.
	Trace []trace.Option
	// Context, when non-nil, bounds the session: once canceled, new
	// capture records are skipped instead of enqueued, so a canceled
	// job's compute goroutines never block on a Block-policy capture
	// queue while draining toward the shutdown barrier.
	Context context.Context
}

// Attach creates a Graft session: it validates the DebugConfig,
// selects the static capture targets from the graph (by-ID, random,
// neighbors), writes the job manifest and opens the trace files.
func Attach(store *trace.Store, opts Options, graph *pregel.Graph, cfg DebugConfig) (*Graft, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NumWorkers <= 0 {
		opts.NumWorkers = pregel.DefaultNumWorkers
	}
	g := &Graft{
		cfg:      cfg,
		jobID:    opts.JobID,
		store:    store,
		reasons:  selectTargets(graph, &cfg),
		rcs:      make([]recordingContext, opts.NumWorkers),
		capNanos: make([]paddedNanos, opts.NumWorkers),
		start:    time.Now(),
		ctx:      opts.Context,
	}
	if g.ctx == nil {
		g.ctx = context.Background()
	}
	sink, err := store.NewSink(trace.JobMeta{
		JobID:       opts.JobID,
		Algorithm:   opts.Algorithm,
		Description: opts.Description,
		NumWorkers:  opts.NumWorkers,
		NumVertices: graph.NumVertices(),
		NumEdges:    graph.NumEdges(),
		ComputeMode: opts.ComputeMode,
	}, opts.Trace...)
	if err != nil {
		return nil, err
	}
	g.sink = sink
	g.workerSinks = make([]trace.RecordSink, opts.NumWorkers)
	for i := range g.workerSinks {
		g.workerSinks[i] = sink.WorkerSink(i)
	}
	g.masterSink = sink.MasterSink()
	return g, nil
}

// selectTargets computes the static capture set: explicit IDs, the
// seeded random sample, and (optionally) the out-neighbors of both.
func selectTargets(graph *pregel.Graph, cfg *DebugConfig) map[pregel.VertexID]trace.Reason {
	m := make(map[pregel.VertexID]trace.Reason)
	for _, id := range cfg.CaptureIDs {
		m[id] |= trace.ReasonByID
	}
	if cfg.NumRandomCaptures > 0 {
		ids := graph.VertexIDs()
		rng := rand.New(rand.NewSource(cfg.RandomSeed))
		k := cfg.NumRandomCaptures
		if k > len(ids) {
			k = len(ids)
		}
		// Partial Fisher-Yates: the first k positions become the sample.
		for i := 0; i < k; i++ {
			j := i + rng.Intn(len(ids)-i)
			ids[i], ids[j] = ids[j], ids[i]
			m[ids[i]] |= trace.ReasonRandom
		}
	}
	if cfg.CaptureNeighbors {
		var targets []pregel.VertexID
		for id, r := range m {
			if r.Has(trace.ReasonByID) || r.Has(trace.ReasonRandom) {
				targets = append(targets, id)
			}
		}
		for _, id := range targets {
			v := graph.Vertex(id)
			if v == nil {
				continue
			}
			for _, e := range v.Edges() {
				m[e.Target] |= trace.ReasonNeighbor
			}
		}
	}
	return m
}

// JobID returns the session's job ID.
func (g *Graft) JobID() string { return g.jobID }

// Captures returns the number of capture records written so far.
func (g *Graft) Captures() int64 { return g.captures.Load() }

// LimitHit reports whether the MaxCaptures safety net engaged.
func (g *Graft) LimitHit() bool { return g.limitHit.Load() }

// Targets returns the static capture set with selection reasons.
func (g *Graft) Targets() map[pregel.VertexID]trace.Reason {
	out := make(map[pregel.VertexID]trace.Reason, len(g.reasons))
	for id, r := range g.reasons {
		out[id] = r
	}
	return out
}

// Err returns the first trace-write failure, if any. Write failures do
// not abort the debugged job; they surface here and in job.done.
func (g *Graft) Err() error {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	return g.writeErr
}

func (g *Graft) recordWriteErr(err error) {
	g.writeMu.Lock()
	if g.writeErr == nil {
		g.writeErr = err
	}
	g.writeMu.Unlock()
}

// DroppedRecords returns how many trace records were discarded:
// backpressure drops under the Drop policy plus segments lost to
// storage failure. Trace loss degrades the capture but never aborts
// the debugged job — the paper's stance. Dropped records are counted
// here and in job.done; they are deliberately NOT folded into Err():
// a drop is expected degradation, a write error is a structural
// failure, and conflating the two (the old recordDropped double-count)
// made every degraded run look broken.
func (g *Graft) DroppedRecords() int64 { return g.sink.DroppedRecords() }

// FaultStats returns the trace store's resilience counters (retries,
// fallbacks, injected faults) plus the records this session dropped.
func (g *Graft) FaultStats() pregel.FaultStats {
	var s pregel.FaultStats
	if p, ok := g.store.FS.(pregel.FaultStatsProvider); ok {
		s = p.FaultStats()
	}
	s.DroppedRecords += g.sink.DroppedRecords()
	return s
}

// BarrierFlush implements pregel.BarrierFlusher: the engine calls it
// at every superstep barrier to drain the capture queues and commit
// the records of the finished superstep. Flush failures are recorded
// but never abort the debugged job.
func (g *Graft) BarrierFlush(superstep int) error {
	if err := g.sink.BarrierFlush(superstep); err != nil {
		g.recordWriteErr(err)
	}
	return nil
}

// CaptureQueueDepth implements pregel.CaptureQueueReporter.
func (g *Graft) CaptureQueueDepth() int { return g.sink.QueueDepth() }

// Chain makes Graft forward listener callbacks to next, so callers can
// keep their own JobListener while debugging.
func (g *Graft) Chain(next pregel.JobListener) *Graft {
	g.inner = next
	return g
}

// Instrument wraps the user computation with Graft's capture logic:
// the Go equivalent of the paper's Javassist-based Instrumenter.
func (g *Graft) Instrument(comp pregel.Computation) pregel.Computation {
	return &instrumentedComputation{g: g, user: comp}
}

// InstrumentMaster wraps a master computation so its context
// (aggregator values before/after, Set calls, halt decisions) is
// captured every observed superstep. A nil master stays nil.
func (g *Graft) InstrumentMaster(m pregel.MasterComputation) pregel.MasterComputation {
	if m == nil {
		return nil
	}
	return &instrumentedMaster{g: g, user: m}
}

// JobStarted implements pregel.JobListener.
func (g *Graft) JobStarted(info pregel.JobInfo) {
	if g.inner != nil {
		g.inner.JobStarted(info)
	}
}

// SuperstepStarted implements pregel.JobListener: it records the
// superstep's global data (totals + aggregator broadcast) that every
// vertex capture of the superstep shares.
func (g *Graft) SuperstepStarted(superstep int, info pregel.SuperstepInfo) {
	if g.cfg.observes(superstep) {
		// Drop accounting for failed writes happens inside the sink;
		// a synchronous-mode error is already counted there too.
		_ = g.masterSink.WriteSuperstepMeta(&trace.SuperstepMeta{
			Superstep:   superstep,
			NumVertices: info.NumVertices,
			NumEdges:    info.NumEdges,
			Aggregated:  info.Aggregated,
		})
	}
	if g.inner != nil {
		g.inner.SuperstepStarted(superstep, info)
	}
}

// SuperstepFinished implements pregel.JobListener.
func (g *Graft) SuperstepFinished(superstep int, stats pregel.SuperstepStats) {
	if g.inner != nil {
		g.inner.SuperstepFinished(superstep, stats)
	}
}

// JobFinished implements pregel.JobListener: it closes every trace
// file and writes job.done, including the trace store's resilience
// counters, and folds those counters into the engine's Stats so
// callers see one combined FaultStats.
func (g *Graft) JobFinished(stats *pregel.Stats, err error) {
	// Close (commit) the trace files first: fallback decisions are made
	// at commit time, and job.done must reflect them.
	if cerr := g.sink.CloseFiles(); cerr != nil {
		g.recordWriteErr(cerr)
	}
	if serr := g.sink.Err(); serr != nil {
		g.recordWriteErr(serr)
	}
	res := trace.JobResult{
		Captures:        g.captures.Load(),
		CaptureLimitHit: g.limitHit.Load(),
		RuntimeMillis:   time.Since(g.start).Milliseconds(),
		DroppedRecords:  g.sink.DroppedRecords(),
	}
	if stats != nil {
		res.Supersteps = stats.Supersteps
		res.Reason = stats.Reason.String()
	}
	if err != nil {
		res.Error = err.Error()
	}
	if g.writeErr != nil && res.Error == "" {
		res.Error = fmt.Sprintf("trace write: %v", g.writeErr)
	}
	if d, ok := g.store.FS.(interface{ DegradedPaths() []string }); ok {
		res.StorageDegraded = d.DegradedPaths()
	}
	if p, ok := g.store.FS.(pregel.FaultStatsProvider); ok {
		res.StorageRetries = p.FaultStats().Retries
	}
	if stats != nil {
		stats.Faults.Add(g.FaultStats())
	}
	if ferr := g.sink.Finish(res); ferr != nil {
		g.recordWriteErr(ferr)
	}
	if g.inner != nil {
		g.inner.JobFinished(stats, err)
	}
}

// paddedNanos is an int64 nanosecond counter padded to its own cache
// line, so adjacent workers' capture-time accrual never false-shares.
type paddedNanos struct {
	n int64
	_ [120]byte
}

// instrumentedComputation is the wrapper the Instrumenter installs
// around the user's Computation (paper §3.1): it calls the original
// compute with a recording context, then decides whether to capture.
type instrumentedComputation struct {
	g    *Graft
	user pregel.Computation
}

// CaptureNanos implements pregel.CaptureTimeReporter: cumulative time
// worker w spent in Graft's capture instrumentation. Each worker
// updates only its own slot, and the engine reads it from the same
// goroutine around the worker's compute loop, so plain loads suffice.
func (ic *instrumentedComputation) CaptureNanos(w int) int64 {
	if w >= len(ic.g.capNanos) {
		return 0
	}
	return ic.g.capNanos[w].n
}

// Compute implements pregel.Computation.
func (ic *instrumentedComputation) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	g := ic.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return ic.user.Compute(ctx, v, msgs)
	}
	capStart := time.Now()

	worker := ctx.WorkerID()
	if worker >= len(g.rcs) {
		panic(fmt.Sprintf("core: job runs with at least %d workers but Attach was told %d; "+
			"Options.NumWorkers must match pregel.Config.NumWorkers", worker+1, len(g.rcs)))
	}
	rec := &g.rcs[worker]
	rec.reset(ctx, g, v)

	staticReason := g.reasons[v.ID()]
	needPre := staticReason != 0 || g.cfg.CaptureAllActive
	// The pre-compute value is snapshotted only when a capture might
	// need it: for statically selected vertices, capture-all-active,
	// and whenever constraints could trigger a capture of any vertex.
	// Exception-triggered captures of other vertices cannot be
	// predicted, so — like the Java Graft, which logs the context only
	// when compute finishes — their ValueBefore is unavailable (nil)
	// and replay starts from the value at capture time.
	//
	// A snapshot is the value's encoding, written into the worker's
	// scratch: as immune to what compute does next as a clone, and
	// already in the form the record stores.
	if needPre || g.cfg.hasDynamicConstraints() {
		pregel.EncodeTyped(&rec.before, v.Value())
	}
	if needPre {
		trace.PutEdges(&rec.edges, v.Edges())
	}

	// The §7 extension: message constraints that depend on the value
	// of the destination vertex, checked at delivery time where that
	// value is known.
	sawIncomingViolation := false
	if g.cfg.IncomingMessageConstraint != nil {
		for _, m := range msgs {
			if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
				sawIncomingViolation = true
				rec.violations = append(rec.violations, trace.Violation{
					Kind:  trace.IncomingMessageViolation,
					SrcID: -1,
					DstID: v.ID(),
					Value: pregel.CloneValue(m),
				})
			}
		}
	}

	// Attribute instrumentation time (snapshotting, constraint checks,
	// capture writes) to this worker's slot, excluding the user compute
	// itself, so the engine can report capture overhead per superstep.
	capSlot := &g.capNanos[worker]
	capSlot.n += time.Since(capStart).Nanoseconds()

	var exc *trace.ExceptionInfo
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				stack := string(debug.Stack())
				exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
				err = &PanicError{Value: p, Stack: stack}
			}
		}()
		return ic.user.Compute(rec, v, msgs)
	}()
	capStart = time.Now()
	defer func() { capSlot.n += time.Since(capStart).Nanoseconds() }()
	if err != nil && exc == nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}

	reasons := staticReason
	if g.cfg.CaptureAllActive {
		reasons |= trace.ReasonAllActive
	}
	if err == nil && g.cfg.VertexValueConstraint != nil &&
		!g.cfg.VertexValueConstraint(v.Value(), v.ID(), superstep) {
		reasons |= trace.ReasonVertexConstraint
		rec.violations = append(rec.violations, trace.Violation{
			Kind:  trace.VertexValueViolation,
			SrcID: v.ID(),
			DstID: v.ID(),
			Value: pregel.CloneValue(v.Value()),
		})
	}
	if rec.sawMsgViolation {
		reasons |= trace.ReasonMessageConstraint
	}
	if sawIncomingViolation {
		reasons |= trace.ReasonIncomingConstraint
	}
	if err != nil && g.cfg.CaptureExceptions {
		reasons |= trace.ReasonException
	}
	if reasons != 0 {
		g.capture(v, msgs, rec, reasons, needPre, exc)
	}
	return err
}

// capture writes one vertex capture record, respecting the MaxCaptures
// safety net. The record is assembled from the snapshots rec already
// holds as bytes and from live values — the value after, the incoming
// messages — that the sink encodes before it returns (see
// trace.RecordSink), so nothing is cloned and no record object built.
func (g *Graft) capture(v *pregel.Vertex, msgs []pregel.Value, rec *recordingContext,
	reasons trace.Reason, edgesPreCompute bool, exc *trace.ExceptionInfo) {

	// A canceled job is shutting down at the next barrier; its remaining
	// computes still run (barrier consistency) but their captures would
	// record a superstep that will never fold, and Block backpressure
	// could stall the drain. Skip them.
	if g.ctx.Err() != nil {
		return
	}

	if max := g.cfg.maxCaptures(); max >= 0 {
		if n := g.captures.Add(1); n > max {
			g.captures.Add(-1)
			g.limitHit.Store(true)
			return
		}
	} else {
		g.captures.Add(1)
	}

	if !edgesPreCompute {
		trace.PutEdges(&rec.edges, v.Edges())
	}
	worker := rec.Context.WorkerID()
	rec.frame = trace.VertexFrame{
		Superstep:       rec.Context.Superstep(),
		Worker:          worker,
		ID:              v.ID(),
		Reasons:         reasons,
		ValueBefore:     rec.before.Bytes(),
		ValueAfter:      v.Value(),
		Edges:           rec.edges.Bytes(),
		EdgesPreCompute: edgesPreCompute,
		Incoming:        msgs,
		Outgoing:        rec.out.Bytes(),
		NumOutgoing:     rec.numOut,
		HaltedAfter:     v.Halted(),
		Violations:      rec.violations,
		Exception:       exc,
	}
	// The sink owns drop accounting: Drop-policy discards and failed
	// segment commits are counted there, without poisoning Err().
	_ = g.workerSinks[worker].WriteVertexFrame(&rec.frame)
}

// recordingContext intercepts message sends to check the message
// constraint and to remember what a captured vertex sent. Instances
// are recycled per worker; reset prepares one for the next vertex.
type recordingContext struct {
	pregel.Context
	g *Graft
	v *pregel.Vertex

	// before, edges and out are the vertex's snapshots in record form:
	// the typed pre-compute value, trace.PutEdges of the edge list, and
	// one trace.PutOutMsg per send (numOut of them).
	before, edges, out pregel.Encoder
	numOut             int
	// frame is where capture assembles the record: handing the sink a
	// pointer into this context instead of to a local costs no
	// allocation.
	frame trace.VertexFrame

	violations      []trace.Violation
	sawMsgViolation bool
}

func (c *recordingContext) reset(ctx pregel.Context, g *Graft, v *pregel.Vertex) {
	c.Context, c.g, c.v = ctx, g, v
	c.before.Reset()
	c.edges.Reset()
	c.out.Reset()
	c.numOut = 0
	c.violations = c.violations[:0] // the sink has encoded the last vertex's
	c.sawMsgViolation = false
}

// SendMessage implements pregel.Context.
func (c *recordingContext) SendMessage(to pregel.VertexID, msg pregel.Value) {
	g := c.g
	if g.cfg.MessageConstraint != nil &&
		!g.cfg.MessageConstraint(msg, c.v.ID(), to, c.Context.Superstep()) {
		c.sawMsgViolation = true
		c.violations = append(c.violations, trace.Violation{
			Kind:  trace.MessageViolation,
			SrcID: c.v.ID(),
			DstID: to,
			Value: pregel.CloneValue(msg),
		})
	}
	// The record must snapshot at send time: once msg reaches the plane a
	// combiner may mutate it in place (sender-side combining folds later
	// sends into stored entries during this same compute call), which
	// would retroactively rewrite the recorded value.
	trace.PutOutMsg(&c.out, to, msg)
	c.numOut++
	c.Context.SendMessage(to, msg)
}

// SendMessageToAllEdges implements pregel.Context, routing every copy
// through the recording SendMessage. The original is sent on the last
// edge for the same reason as the engine's own implementation: the
// plane owns a Value once sent and may mutate it, so cloning msg after
// handing it off would copy combiner mutations into later recipients.
func (c *recordingContext) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	edges := v.Edges()
	last := len(edges) - 1
	for i, e := range edges {
		m := msg
		if i < last {
			m = msg.Clone()
		}
		c.SendMessage(e.Target, m)
	}
}
