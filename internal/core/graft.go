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
	// hot path is one slice load away from its lane.
	workerSinks []trace.RecordSink
	masterSink  trace.RecordSink
	reasons     map[pregel.VertexID]trace.Reason
	// workers holds each worker's reusable interception contexts: a
	// worker executes its vertices sequentially, so per-compute-call
	// state can be recycled instead of allocated, keeping the
	// instrumentation overhead near the paper's.
	workers []workerState
	// capNanos accumulates per-worker time spent building capture
	// records. Slots are cache-line padded: each worker writes
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
	// Seed and Supersteps land in the manifest as metadata (see
	// trace.JobMeta); the session does not read them.
	Seed       int64
	Supersteps int
	// Context, when non-nil, bounds the session: once canceled, the
	// computes a job still runs on its way to the shutdown barrier write
	// no new capture records, since that superstep never folds.
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
		workers:  make([]workerState, opts.NumWorkers),
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
		Seed:        opts.Seed,
		Supersteps:  opts.Supersteps,
	})
	if err != nil {
		return nil, err
	}
	g.sink = sink
	g.workerSinks = make([]trace.RecordSink, opts.NumWorkers)
	for i := range g.workerSinks {
		g.workerSinks[i] = sink.WorkerSink(i)
	}
	g.masterSink = sink.MasterSink()
	for i := range g.workers {
		g.workers[i].check.msgOK, g.workers[i].rec.g = cfg.MessageConstraint, g
	}
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

// DroppedRecords returns how many trace records were lost to storage
// failure (segments that could not be committed). Trace loss degrades
// the capture but never aborts the debugged job — the paper's stance.
// Dropped records are counted here and in job.done; the failure itself
// is in Err.
func (g *Graft) DroppedRecords() int64 { return g.sink.DroppedRecords() }

// FaultStats returns the trace store's resilience counters (retries,
// injected faults) plus the records this session dropped.
func (g *Graft) FaultStats() pregel.FaultStats {
	var s pregel.FaultStats
	if p, ok := g.store.FS.(pregel.FaultStatsProvider); ok {
		s = p.FaultStats()
	}
	s.DroppedRecords += g.sink.DroppedRecords()
	return s
}

// BarrierFlush implements pregel.BarrierFlusher: the engine calls it
// at every superstep barrier to commit the records of the finished
// superstep. Flush failures are recorded but never abort the debugged
// job.
func (g *Graft) BarrierFlush(superstep int) error {
	if err := g.sink.BarrierFlush(superstep); err != nil {
		g.recordWriteErr(err)
	}
	return nil
}

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
		// Drop accounting for failed writes happens inside the sink.
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
	// Close (commit) the trace files first: retries and write errors
	// happen at commit time, and job.done must reflect them.
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

// workerState is what one worker's interception reuses from vertex to
// vertex: the check-only context most computes run under, and the
// recording context (with the mute base of its re-runs) the captured
// ones do.
type workerState struct {
	check checkContext
	rec   recordingContext
	mute  muteContext
	// edgesBefore is a check-only vertex's edge list as it was before
	// compute: what its re-run starts from, never part of the record.
	edgesBefore edgeSnapshot
}

// edgeSnapshot holds an edge list immune to what compute does to the
// vertex next: the targets by copy, and the values that are not nil —
// compute may change one in place — by their encoding. It holds no
// pointer, so taking one costs the collector nothing.
type edgeSnapshot struct {
	targets []pregel.VertexID
	valued  []int32 // indexes of the edges whose value is not nil
	values  pregel.Encoder
}

func (s *edgeSnapshot) take(edges []pregel.Edge) {
	s.targets, s.valued = s.targets[:0], s.valued[:0]
	s.values.Reset()
	for i := range edges {
		s.targets = append(s.targets, edges[i].Target)
		if edges[i].Value != nil {
			s.valued = append(s.valued, int32(i))
			pregel.EncodeTyped(&s.values, edges[i].Value)
		}
	}
}

// restore gives v the snapshotted edges, each value a fresh decode.
func (s *edgeSnapshot) restore(v *pregel.Vertex) error {
	d := pregel.NewDecoder(s.values.Bytes())
	valued := s.valued
	for i, target := range s.targets {
		e := pregel.Edge{Target: target}
		if len(valued) > 0 && int(valued[0]) == i {
			valued = valued[1:]
			var err error
			if e.Value, err = pregel.DecodeTyped(d); err != nil {
				return err
			}
		}
		v.AddEdge(e)
	}
	return nil
}

// instrumentedComputation is the wrapper the Instrumenter installs
// around the user's Computation (paper §3.1). A vertex known before it
// computes to be captured runs under a recording context; every other
// vertex runs check-only, and the few of those a constraint or an
// exception picks afterwards get their record from a recording re-run
// (DESIGN.md §9).
type instrumentedComputation struct {
	g    *Graft
	user pregel.Computation
}

// CaptureNanos implements pregel.CaptureTimeReporter: cumulative time
// worker w spent building capture records. Each worker updates only
// its own slot, and the engine reads it from the same goroutine around
// the worker's compute loop, so plain loads suffice.
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
	worker := ctx.WorkerID()
	if worker >= len(g.workers) {
		panic(fmt.Sprintf("core: job runs with at least %d workers but Attach was told %d; "+
			"Options.NumWorkers must match pregel.Config.NumWorkers", worker+1, len(g.workers)))
	}
	w := &g.workers[worker]

	// What is known before compute: static selection, capture-all-active,
	// and the §7 extension — message constraints that depend on the value
	// of the destination vertex, checked at delivery time where that
	// value is known.
	reasons := g.reasons[v.ID()]
	if g.cfg.CaptureAllActive {
		reasons |= trace.ReasonAllActive
	}
	w.rec.violations = w.rec.violations[:0] // the sink has encoded the last vertex's
	if g.cfg.IncomingMessageConstraint != nil {
		for _, m := range msgs {
			if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
				reasons |= trace.ReasonIncomingConstraint
				w.rec.violations = append(w.rec.violations, trace.Violation{
					Kind:  trace.IncomingMessageViolation,
					SrcID: -1,
					DstID: v.ID(),
					Value: pregel.CloneValue(m),
				})
			}
		}
	}
	if reasons != 0 {
		return ic.record(ctx, w, v, msgs, reasons)
	}
	return ic.check(ctx, w, v, msgs, superstep)
}

// compute runs the user's Compute, turning a panic into a PanicError
// and any failure into the record's exception.
func (ic *instrumentedComputation) compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) (exc *trace.ExceptionInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := string(debug.Stack())
			exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
			err = &PanicError{Value: p, Stack: stack}
		}
	}()
	if err = ic.user.Compute(ctx, v, msgs); err != nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}
	return exc, err
}

// record is the recording path, for a vertex that will be captured
// whatever its compute does: every piece of the record is snapshotted
// where it is current.
func (ic *instrumentedComputation) record(ctx pregel.Context, w *workerState, v *pregel.Vertex,
	msgs []pregel.Value, reasons trace.Reason) error {

	g := ic.g
	capStart := time.Now()
	rec := &w.rec
	rec.reset(ctx, v)
	// A snapshot is the value's encoding, written into the worker's
	// scratch: as immune to what compute does next as a clone, and
	// already in the form the record stores. A vertex here only for what
	// it received keeps the post-compute edge list every other
	// dynamically triggered capture stores.
	rec.snapshot(v)
	edgesPreCompute := reasons != trace.ReasonIncomingConstraint
	if edgesPreCompute {
		trace.PutEdges(&rec.edges, v.Edges())
	}

	// Attribute record building (snapshotting, the capture write) to this
	// worker's slot, excluding the user compute itself, so the engine can
	// report capture overhead per superstep.
	capSlot := &g.capNanos[rec.worker]
	capSlot.n += time.Since(capStart).Nanoseconds()
	exc, err := ic.compute(rec, v, msgs)
	capStart = time.Now()

	reasons |= g.verdict(v, rec.superstep, rec.sawMsgViolation, err)
	if !edgesPreCompute {
		trace.PutEdges(&rec.edges, v.Edges())
	}
	g.capture(v, msgs, rec, reasons, edgesPreCompute, exc)
	capSlot.n += time.Since(capStart).Nanoseconds()
	return err
}

// check is the check-only path, for a vertex nothing has selected yet:
// the constraints see every message and the value it ends with, and
// nothing is recorded but what a re-run would start from — the
// pre-compute value and edge list, encoded into the worker's scratch.
// No clone, no message encode, no clock read.
func (ic *instrumentedComputation) check(ctx pregel.Context, w *workerState, v *pregel.Vertex, msgs []pregel.Value, superstep int) error {
	g := ic.g
	chk := &w.check
	chk.Context, chk.v, chk.superstep = ctx, v, superstep
	chk.numOut, chk.sawMsgViolation = 0, false
	if g.cfg.capturesPostHoc() {
		w.rec.snapshot(v)
		w.edgesBefore.take(v.Edges())
	}
	exc, err := ic.compute(chk, v, msgs)

	reasons := g.verdict(v, chk.superstep, chk.sawMsgViolation, err)
	// Once the capture limit has engaged or the job is canceled, capture
	// would discard the record: don't build it.
	if reasons != 0 && !g.limitHit.Load() && g.ctx.Err() == nil {
		ic.rerun(w, v, msgs, reasons, exc)
	}
	return err
}

// verdict is what a finished compute adds to its vertex's capture
// reasons: the value it left (judged only if compute succeeded), a
// violating send, a failure.
func (g *Graft) verdict(v *pregel.Vertex, superstep int, sawMsgViolation bool, err error) trace.Reason {
	var reasons trace.Reason
	if err == nil && g.cfg.VertexValueConstraint != nil &&
		!g.cfg.VertexValueConstraint(v.Value(), v.ID(), superstep) {
		reasons |= trace.ReasonVertexConstraint
	}
	if sawMsgViolation {
		reasons |= trace.ReasonMessageConstraint
	}
	if err != nil && g.cfg.CaptureExceptions {
		reasons |= trace.ReasonException
	}
	return reasons
}

// rerun builds the record of a vertex the check-only path found, after
// its compute, to be captured: a detached copy of the vertex as it was
// before — the snapshotted value and edges — runs the user's Compute
// once more under the recording context, over a base that passes reads
// through and swallows every output. What the vertex sent and which
// sends violated come from that run; everything else in the record is
// the live first run's, which the re-run never touches. If the two runs
// ended differently the capture says so (trace.ReasonNondeterministic)
// instead of recording messages the job may not have sent.
func (ic *instrumentedComputation) rerun(w *workerState, v *pregel.Vertex, msgs []pregel.Value,
	reasons trace.Reason, exc *trace.ExceptionInfo) {

	g := ic.g
	capStart := time.Now()
	chk, rec := &w.check, &w.rec
	w.mute.Context = chk.Context
	same := false
	before, err := pregel.UnmarshalValue(rec.before.Bytes())
	twin := pregel.NewDetachedVertex(v.ID(), before)
	if err == nil {
		err = w.edgesBefore.restore(twin)
	}
	if err == nil {
		again := make([]pregel.Value, len(msgs))
		for i, m := range msgs {
			again[i] = pregel.CloneValue(m)
		}
		rec.reset(&w.mute, twin)
		_, rerr := ic.compute(rec, twin, again)
		// The received messages are the one input there is no snapshot
		// of: a compute that changed them was re-run on what it left.
		same = pregel.ValuesEqual(twin.Value(), v.Value()) && twin.Halted() == v.Halted() &&
			edgesEqual(twin.Edges(), v.Edges()) && valuesEqual(again, msgs) &&
			rec.numOut == chk.numOut && rec.sawMsgViolation == chk.sawMsgViolation &&
			(rerr != nil) == (exc != nil)
	} else {
		// The vertex does not decode from its own encoding: there is
		// nothing to re-run from.
		rec.reset(&w.mute, v)
	}
	if !same {
		reasons |= trace.ReasonNondeterministic
	}
	trace.PutEdges(&rec.edges, v.Edges())
	g.capture(v, msgs, rec, reasons, false, exc)
	g.capNanos[rec.worker].n += time.Since(capStart).Nanoseconds()
}

func valuesEqual(a, b []pregel.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !pregel.ValuesEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// edgesEqual reports whether two edge lists hold the same targets and
// values in the same order.
func edgesEqual(a, b []pregel.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Target != b[i].Target || !pregel.ValuesEqual(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// capture writes one vertex capture record, respecting the MaxCaptures
// safety net. The record is assembled from the snapshots rec already
// holds as bytes (edgesPreCompute says which edge list the caller
// encoded) and from live values — the value after, the incoming
// messages — that the sink encodes before it returns (see
// trace.RecordSink), so nothing is cloned and no record object built.
func (g *Graft) capture(v *pregel.Vertex, msgs []pregel.Value, rec *recordingContext,
	reasons trace.Reason, edgesPreCompute bool, exc *trace.ExceptionInfo) {

	// A canceled job is shutting down at the next barrier; its remaining
	// computes still run (barrier consistency) but their captures would
	// record a superstep that will never fold. Skip them.
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

	if reasons.Has(trace.ReasonVertexConstraint) {
		rec.violations = append(rec.violations, trace.Violation{
			Kind:  trace.VertexValueViolation,
			SrcID: v.ID(),
			DstID: v.ID(),
			Value: pregel.CloneValue(v.Value()),
		})
	}
	rec.frame = trace.VertexFrame{
		Superstep:       rec.superstep,
		Worker:          rec.worker,
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
	// The sink owns loss accounting: a segment that fails to commit is
	// counted there and kept in its Err, which JobFinished folds in.
	_ = g.workerSinks[rec.worker].WriteVertexFrame(&rec.frame)
}

// checkContext is the context of the check-only path: it evaluates the
// message constraint on each message as it is sent, counts the sends,
// and forwards them untouched, SendMessageToAllEdges as the one call it
// was, so the engine keeps its once-per-vertex path.
type checkContext struct {
	pregel.Context
	// msgOK is DebugConfig.MessageConstraint, nil for none.
	msgOK     func(msg pregel.Value, src, dst pregel.VertexID, superstep int) bool
	v         *pregel.Vertex
	superstep int

	numOut          int
	sawMsgViolation bool
}

// SendMessage implements pregel.Context.
func (c *checkContext) SendMessage(to pregel.VertexID, msg pregel.Value) {
	if c.msgOK != nil && !c.msgOK(msg, c.v.ID(), to, c.superstep) {
		c.sawMsgViolation = true
	}
	c.numOut++
	c.Context.SendMessage(to, msg)
}

// SendMessageToAllEdges implements pregel.Context. The constraint takes
// the destination, so it is evaluated once per edge.
func (c *checkContext) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	edges := v.Edges()
	if c.msgOK != nil {
		src := c.v.ID()
		for i := range edges {
			if !c.msgOK(msg, src, edges[i].Target, c.superstep) {
				c.sawMsgViolation = true
			}
		}
	}
	c.numOut += len(edges)
	c.Context.SendMessageToAllEdges(v, msg)
}

// muteContext is the base context of a recording re-run: reads
// (superstep, worker, totals, aggregator broadcast) come from the live
// context, and everything a compute emits is swallowed — the first run
// already sent it.
type muteContext struct{ pregel.Context }

func (*muteContext) SendMessage(pregel.VertexID, pregel.Value)          {}
func (*muteContext) SendMessageToAllEdges(*pregel.Vertex, pregel.Value) {}
func (*muteContext) Aggregate(string, pregel.Value)                     {}
func (*muteContext) RemoveVertexRequest(pregel.VertexID)                {}
func (*muteContext) AddVertexRequest(pregel.VertexID, pregel.Value)     {}

// recordingContext intercepts message sends to check the message
// constraint and to remember what a captured vertex sent. Instances
// are recycled per worker; reset prepares one for the next vertex.
type recordingContext struct {
	pregel.Context
	g         *Graft
	v         *pregel.Vertex
	superstep int
	worker    int

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

// reset prepares the context for v's compute. The pre-compute value is
// snapshot's to replace, and the violation list Compute's, which has
// judged the incoming messages by now: a re-run resets after both.
func (c *recordingContext) reset(ctx pregel.Context, v *pregel.Vertex) {
	c.Context, c.v = ctx, v
	c.superstep, c.worker = ctx.Superstep(), ctx.WorkerID()
	c.edges.Reset()
	c.out.Reset()
	c.numOut = 0
	c.sawMsgViolation = false
}

// snapshot records v's value as the record's ValueBefore.
func (c *recordingContext) snapshot(v *pregel.Vertex) {
	c.before.Reset()
	pregel.EncodeTyped(&c.before, v.Value())
}

// SendMessage implements pregel.Context.
func (c *recordingContext) SendMessage(to pregel.VertexID, msg pregel.Value) {
	g := c.g
	if g.cfg.MessageConstraint != nil &&
		!g.cfg.MessageConstraint(msg, c.v.ID(), to, c.superstep) {
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
