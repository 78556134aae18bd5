package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
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
//	g, _ := core.Attach(ctx, store, meta, graph, debugConfig)
//	comp = g.Instrument(comp)
//	cfg.Master = g.InstrumentMaster(cfg.Master)
//	cfg.Listener = g // or g.Chain(existing)
type Graft struct {
	cfg   DebugConfig
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
	// capSlots holds each worker's capture count and sampled capture
	// time, which the engine reads at the barrier.
	capSlots []capSlot

	writeMu  sync.Mutex // serializes error recording only
	writeErr error

	inner pregel.JobListener
	start time.Time
	// done is Attach's ctx.Done: a receive that finds it open takes no
	// lock, where Err does. Nil, never ready, for no context.
	done <-chan struct{}

	// claimed is the shared budget a finite MaxCaptures claims from,
	// one per capture; without a limit no worker touches it. It is
	// padded off the lines workers read per vertex (cfg, workerSinks,
	// done).
	_        [128]byte
	claimed  atomic.Int64
	limitHit atomic.Bool
	_        [128]byte
}

// Attach creates a Graft session for the job meta describes, under a
// cfg that passed Validate: it selects the static capture targets from
// the graph (by-ID, random, neighbors), writes meta as the job
// manifest and opens the trace files. meta.NumWorkers must match the
// pregel.Config the job will run with (0 means the engine default);
// its vertex and edge counts are taken from graph. Once ctx is
// canceled, the computes a job still runs on its way to the shutdown
// barrier write no new capture records, since that superstep never
// folds; a nil ctx never cancels.
func Attach(ctx context.Context, store *trace.Store, meta trace.JobMeta, graph *pregel.Graph, cfg DebugConfig) (*Graft, error) {
	if meta.NumWorkers <= 0 {
		meta.NumWorkers = pregel.DefaultNumWorkers
	}
	g := &Graft{
		cfg:      cfg,
		store:    store,
		reasons:  selectTargets(graph, &cfg),
		workers:  make([]workerState, meta.NumWorkers),
		capSlots: make([]capSlot, meta.NumWorkers),
		start:    time.Now(),
	}
	if ctx != nil {
		g.done = ctx.Done()
	}
	meta.NumVertices, meta.NumEdges = graph.NumVertices(), graph.NumEdges()
	sink, err := store.NewSink(meta)
	if err != nil {
		return nil, err
	}
	g.sink = sink
	g.workerSinks = make([]trace.RecordSink, meta.NumWorkers)
	for i := range g.workerSinks {
		g.workerSinks[i] = sink.WorkerSink(i)
	}
	g.masterSink = sink.MasterSink()
	for i := range g.workers {
		w := &g.workers[i]
		w.check.msgOK, w.rec.g, w.sub.g = cfg.MessageConstraint, g, g
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

// Captures returns the number of capture records written. It sums
// the workers' own counts, so it is valid once the job's run has
// returned (or from JobFinished), not while workers still capture.
func (g *Graft) Captures() int64 {
	var n int64
	for i := range g.capSlots {
		n += g.capSlots[i].captures
	}
	return n
}

// canceled reports whether the session's context is done.
func (g *Graft) canceled() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

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

// FaultStats implements pregel.FaultStatsProvider: the records this
// session dropped. The trace store's own counters are its layers' to
// report (dfs.Layers).
func (g *Graft) FaultStats() pregel.FaultStats {
	return pregel.FaultStats{DroppedRecords: g.sink.DroppedRecords()}
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
	return &instrumentedComputation{instrumented: instrumented{g}, user: comp}
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

// JobFinished implements pregel.JobListener: it commits every trace
// file, adds the records it dropped to Stats.Faults, writes job.done
// and then calls the chained listener. The trace store's own counters
// are not Graft's to add: the job's registry folds each storage layer
// in once, after this commit.
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
		Captures:        g.Captures(),
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
	if stats != nil {
		stats.Faults.DroppedRecords += res.DroppedRecords
	}
	if ferr := g.sink.Finish(res); ferr != nil {
		g.recordWriteErr(ferr)
	}
	if g.inner != nil {
		g.inner.JobFinished(stats, err)
	}
}

// sampleStride is the capture-time sampler's stride: in every
// superstep a worker times its first sampleStride records exactly, then
// one in sampleStride with weight sampleStride, and no clock for the
// rest. It is prime, out of step with the trace lane's size check every
// 64 records: a stride of 64 read gc-bp-capture's capture time 20% high.
const sampleStride = 61

// capSlot is one worker's capture telemetry. Only its worker writes it,
// and the pad keeps its fields 128 bytes from the next worker's.
type capSlot struct {
	// captures counts the worker's capture records over the job.
	captures int64
	// nanos is the estimate: each timed stretch times its record's
	// weight (0 if untimed); records counts superstep's records so far.
	nanos, records, weight int64
	superstep              int
	start                  time.Time
	_                      [128]byte
}

// begin starts timing the worker's next record, one built in
// superstep, and returns the slot.
func (s *capSlot) begin(superstep int) *capSlot {
	if superstep != s.superstep {
		s.superstep, s.records = superstep, 0
	}
	s.weight = 0
	if s.records < sampleStride {
		s.weight = 1
	} else if s.records%sampleStride == 0 {
		s.weight = sampleStride
	}
	s.records++
	s.resume()
	return s
}

// resume restarts the clock after a stretch that is not record building.
func (s *capSlot) resume() {
	if s.weight != 0 {
		s.start = time.Now()
	}
}

// pause adds the stretch since resume, weighted, to the estimate.
func (s *capSlot) pause() {
	if s.weight != 0 {
		s.nanos += s.weight * time.Since(s.start).Nanoseconds()
	}
}

// workerState is what one worker's interception reuses from vertex to
// vertex: the check-only context most computes run under, the
// recording context (with the mute base of its re-runs) the captured
// ones do, and in subgraph mode the context a component computes under.
type workerState struct {
	check checkContext
	rec   recordingContext
	mute  muteContext
	sub   recordingSubgraphContext
	// edgesBefore is a check-only vertex's edge list as it was before
	// compute: what its re-run starts from, never part of the record.
	edgesBefore edgeSnapshot
	// Workers write their states concurrently, the check-only counters
	// at every send: the pad keeps each worker's fields off the cache
	// lines of the next one's.
	_ [128]byte
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

// instrumented is what the vertex and subgraph wrappers share: the
// session, whose per-worker capture clock they report.
type instrumented struct{ g *Graft }

// CaptureNanos implements pregel.CaptureTimeReporter: the sampled
// estimate of the time worker w spent building capture records. Each
// worker updates only its own slot, and the engine reads it from the
// same goroutine around the worker's compute loop, so plain loads
// suffice.
func (in instrumented) CaptureNanos(w int) int64 {
	if w >= len(in.g.capSlots) {
		return 0
	}
	return in.g.capSlots[w].nanos
}

// instrumentedComputation is the wrapper the Instrumenter installs
// around the user's Computation (paper §3.1). A vertex known before it
// computes to be captured runs under a recording context; every other
// vertex runs check-only, and the few of those a constraint or an
// exception picks afterwards get their record from a recording re-run
// (DESIGN.md §9).
type instrumentedComputation struct {
	instrumented
	user pregel.Computation
}

// worker returns worker w's reusable interception state. A worker
// beyond the count Attach was given is a wiring bug.
func (g *Graft) worker(w int) *workerState {
	if w >= len(g.workers) {
		panic(fmt.Sprintf("core: job runs with at least %d workers but Attach was told %d; "+
			"JobMeta.NumWorkers must match pregel.Config.NumWorkers", w+1, len(g.workers)))
	}
	return &g.workers[w]
}

// Compute implements pregel.Computation.
func (ic *instrumentedComputation) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	g := ic.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return ic.user.Compute(ctx, v, msgs)
	}
	w := g.worker(ctx.WorkerID())
	if g.admit(&w.rec.record, v, msgs, superstep) {
		return ic.record(ctx, w, v, msgs)
	}
	return ic.check(ctx, w, v, msgs, superstep)
}

// admit sets r.reasons to what is known before v computes: static
// selection, capture-all-active, and the §7 extension — message
// constraints that depend on the value of the destination vertex,
// checked at delivery time where that value is known, each violation
// recorded. It reports whether there is any.
func (g *Graft) admit(r *record, v *pregel.Vertex, msgs []pregel.Value, superstep int) bool {
	r.reasons = g.reasons[v.ID()]
	if g.cfg.CaptureAllActive {
		r.reasons |= trace.ReasonAllActive
	}
	r.violations = r.violations[:0] // the sink has encoded the last vertex's
	if g.cfg.IncomingMessageConstraint != nil {
		for _, m := range msgs {
			if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
				r.reasons |= trace.ReasonIncomingConstraint
				r.violations = append(r.violations, trace.Violation{
					Kind:  trace.IncomingMessageViolation,
					SrcID: -1,
					DstID: v.ID(),
					Value: pregel.CloneValue(m),
				})
			}
		}
	}
	return r.reasons != 0
}

// guard runs a user compute, turning a panic into a PanicError and any
// failure into the exception its capture records.
func guard(compute func() error) (exc *trace.ExceptionInfo, err error) {
	defer func() {
		if p := recover(); p != nil {
			stack := string(debug.Stack())
			exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
			err = &PanicError{Value: p, Stack: stack}
		}
	}()
	if err = compute(); err != nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}
	return exc, err
}

// compute runs the user's Compute under guard.
func (ic *instrumentedComputation) compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) (*trace.ExceptionInfo, error) {
	return guard(func() error { return ic.user.Compute(ctx, v, msgs) })
}

// record is the recording path, for a vertex that will be captured
// whatever its compute does: every piece of the record is snapshotted
// where it is current.
func (ic *instrumentedComputation) record(ctx pregel.Context, w *workerState, v *pregel.Vertex, msgs []pregel.Value) error {
	g := ic.g
	rec := &w.rec
	rec.reset(ctx, v)
	slot := g.capSlots[rec.worker].begin(rec.superstep)
	// A snapshot is the value's encoding, written into the worker's
	// scratch: as immune to what compute does next as a clone, and
	// already in the form the record stores. A vertex here only for what
	// it received keeps the post-compute edge list every other
	// dynamically triggered capture stores.
	rec.snapshot(v)
	edgesPreCompute := rec.reasons&^trace.ReasonIncomingConstraint != 0
	if edgesPreCompute {
		trace.PutEdges(&rec.edges, v.Edges())
	}

	// Attribute record building (snapshotting, the capture write) to this
	// worker's slot, excluding the user compute itself, so the engine can
	// report capture overhead per superstep.
	slot.pause()
	exc, err := ic.compute(rec, v, msgs)
	slot.resume()

	rec.reasons |= g.verdict(v, rec.superstep, rec.sawMsgViolation, err)
	if !edgesPreCompute {
		trace.PutEdges(&rec.edges, v.Edges())
	}
	g.capture(v, msgs, &rec.record, edgesPreCompute, v.Halted(), exc)
	slot.pause()
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
	if reasons != 0 && !g.limitHit.Load() && !g.canceled() {
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
	chk, rec := &w.check, &w.rec
	slot := g.capSlots[chk.WorkerID()].begin(chk.superstep)
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
			slices.EqualFunc(twin.Edges(), v.Edges(), edgeEqual) && slices.EqualFunc(again, msgs, pregel.ValuesEqual) &&
			rec.numOut == chk.numOut && rec.sawMsgViolation == chk.sawMsgViolation &&
			(rerr != nil) == (exc != nil)
	} else {
		// The vertex does not decode from its own encoding: there is
		// nothing to re-run from.
		rec.reset(&w.mute, v)
	}
	rec.reasons = reasons
	if !same {
		rec.reasons |= trace.ReasonNondeterministic
	}
	trace.PutEdges(&rec.edges, v.Edges())
	g.capture(v, msgs, &rec.record, false, v.Halted(), exc)
	slot.pause()
}

// edgeEqual reports whether two edges have the same target and value.
func edgeEqual(a, b pregel.Edge) bool {
	return a.Target == b.Target && pregel.ValuesEqual(a.Value, b.Value)
}

// capture writes rec as v's capture record, respecting the MaxCaptures
// safety net. The record is assembled from the snapshots rec already
// holds as bytes (edgesPreCompute says which edge list the caller
// encoded) and from live values — the value after, the incoming
// messages — that the sink encodes before it returns (see
// trace.RecordSink), so nothing is cloned and no record object built.
// halted is the vertex's halt vote after compute.
func (g *Graft) capture(v *pregel.Vertex, msgs []pregel.Value, rec *record,
	edgesPreCompute, halted bool, exc *trace.ExceptionInfo) {

	// A canceled job is shutting down at the next barrier; its remaining
	// computes still run (barrier consistency) but their captures would
	// record a superstep that will never fold. Skip them.
	if g.canceled() {
		return
	}

	// Only a limit needs a count all workers share; the bound stays
	// exact because a capture claims its place before it is written.
	if max := g.cfg.maxCaptures(); max >= 0 {
		if n := g.claimed.Add(1); n > max {
			g.claimed.Add(-1)
			g.limitHit.Store(true)
			return
		}
	}
	g.capSlots[rec.worker].captures++

	if rec.reasons.Has(trace.ReasonVertexConstraint) {
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
		Reasons:         rec.reasons,
		ValueBefore:     rec.before.Bytes(),
		ValueAfter:      v.Value(),
		Edges:           rec.edges.Bytes(),
		EdgesPreCompute: edgesPreCompute,
		Incoming:        msgs,
		Outgoing:        rec.out.Bytes(),
		NumOutgoing:     rec.numOut,
		HaltedAfter:     halted,
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

// record is one vertex's capture in the making, in vertex and subgraph
// mode alike. A worker recycles its records: one from vertex to vertex,
// and one per member from component to component.
type record struct {
	superstep, worker int
	// reasons is why the vertex is captured, as far as is known yet.
	reasons trace.Reason

	// before, edges and out are the vertex's snapshots in record form:
	// the typed pre-compute value, trace.PutEdges of the edge list, and
	// one trace.PutOutMsg per send (numOut of them).
	before, edges, out pregel.Encoder
	numOut             int
	// frame is where capture assembles the record: handing the sink a
	// pointer into this record instead of to a local costs no
	// allocation.
	frame trace.VertexFrame

	violations      []trace.Violation
	sawMsgViolation bool
}

// reset prepares the record for a compute. The pre-compute value is
// snapshot's to replace, and the violation list and reasons admit's,
// which has judged the incoming messages by now: a re-run resets after
// both.
func (r *record) reset(superstep, worker int) {
	r.superstep, r.worker = superstep, worker
	r.edges.Reset()
	r.out.Reset()
	r.numOut = 0
	r.sawMsgViolation = false
}

// snapshot records v's value as the record's ValueBefore.
func (r *record) snapshot(v *pregel.Vertex) {
	r.before.Reset()
	pregel.EncodeTyped(&r.before, v.Value())
}

// send records a message vertex from sends to vertex to: the message
// constraint's verdict and the message itself. The record must snapshot at send time: once
// msg reaches the plane a combiner may mutate it in place (sender-side
// combining folds later sends into stored entries during this same
// compute call), which would retroactively rewrite the recorded value.
func (r *record) send(g *Graft, from, to pregel.VertexID, msg pregel.Value) {
	if g.cfg.MessageConstraint != nil && !g.cfg.MessageConstraint(msg, from, to, r.superstep) {
		r.sawMsgViolation = true
		r.violations = append(r.violations, trace.Violation{
			Kind:  trace.MessageViolation,
			SrcID: from,
			DstID: to,
			Value: pregel.CloneValue(msg),
		})
	}
	trace.PutOutMsg(&r.out, to, msg)
	r.numOut++
}

// recordingContext intercepts a vertex's message sends to check the
// message constraint and to remember what a captured vertex sent.
// Instances are recycled per worker; reset prepares one for the next
// vertex.
type recordingContext struct {
	pregel.Context
	record
	g *Graft
	v *pregel.Vertex
}

// reset prepares the context for v's compute.
func (c *recordingContext) reset(ctx pregel.Context, v *pregel.Vertex) {
	c.Context, c.v = ctx, v
	c.record.reset(ctx.Superstep(), ctx.WorkerID())
}

// SendMessage implements pregel.Context.
func (c *recordingContext) SendMessage(to pregel.VertexID, msg pregel.Value) {
	c.send(c.g, c.v.ID(), to, msg)
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
