package pregel

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"graft/internal/anomaly"
	"graft/internal/dfs"
)

// TerminationReason explains why a job stopped.
type TerminationReason int

const (
	// ReasonConverged means every vertex voted to halt and no messages
	// were in flight.
	ReasonConverged TerminationReason = iota
	// ReasonMasterHalted means master.compute called HaltComputation.
	ReasonMasterHalted
	// ReasonMaxSupersteps means the Config.MaxSupersteps safety limit
	// was reached (how the maximum-weight-matching scenario's infinite
	// loop surfaces, paper §4.3).
	ReasonMaxSupersteps
)

func (r TerminationReason) String() string {
	switch r {
	case ReasonConverged:
		return "converged"
	case ReasonMasterHalted:
		return "master-halted"
	case ReasonMaxSupersteps:
		return "max-supersteps"
	}
	return fmt.Sprintf("TerminationReason(%d)", int(r))
}

// Stats summarizes a finished job.
type Stats struct {
	// Supersteps is the number of supersteps executed (superstep
	// numbers 0..Supersteps-1).
	Supersteps int
	Reason     TerminationReason
	// TotalMessages counts messages sent over the job's supersteps,
	// before combining: Totals().MessagesSent, set when the job ends.
	TotalMessages int64
	// MessagesDropped is Totals().MessagesDropped, set when the job ends.
	MessagesDropped int64
	// Partitioner is the placement mode the job ran with.
	Partitioner PartitionerMode
	JobEnd
	// PerSuperstep has one entry per superstep of the job's committed
	// history: a checkpoint restart drops the rows after the restored
	// superstep, and the re-run appends them again.
	PerSuperstep []SuperstepStats
}

// JobEnd is the part of a job's Stats that internal/metrics keeps as
// it is: the registry assigns it whole when the job finishes, and the
// JSON tags are the schema of the job.metrics document.
type JobEnd struct {
	// Runtime is the monotonic wall time of Job.Run: partitioning,
	// every superstep, and checkpoint recovery.
	Runtime time.Duration `json:"runtime_ns"`
	// RecoveryTime is the portion of Runtime spent restoring
	// checkpoints after simulated worker crashes.
	RecoveryTime time.Duration `json:"recovery_ns"`
	// Recoveries counts the checkpoint restarts triggered by failure
	// injection.
	Recoveries int `json:"recoveries"`
	// RecoveryEvents has one entry per recovery: where it failed, which
	// checkpoint it rolled back to, how many supersteps it recomputed and
	// how long it took.
	RecoveryEvents []RecoveryEvent `json:"recovery_events,omitempty"`
	// Faults aggregates storage-resilience counters: faults injected
	// into the checkpoint/trace file systems and the retries and
	// skipped checkpoints that absorbed them.
	Faults FaultStats `json:"faults"`
	// PartitionSizes is the per-worker vertex count at job end — the
	// placement-quality view graft show and the GUI render.
	PartitionSizes []int64 `json:"partition_sizes,omitempty"`
	// EdgeCut is the number of directed edges whose endpoints ended the
	// job on different workers (zero for a job that failed or was canceled).
	EdgeCut int64 `json:"edge_cut,omitempty"`
}

// String renders the headline of the summary the CLI prints after a
// run; placement, phases and the rest of the job's numbers
// follow on their own lines (internal/metrics' table).
func (s *Stats) String() string {
	line := fmt.Sprintf("supersteps=%d reason=%s messages=%d runtime=%v",
		s.Supersteps, s.Reason, s.TotalMessages, s.Runtime.Round(time.Millisecond))
	if s.MessagesDropped > 0 {
		line += fmt.Sprintf(" msg-dropped=%d", s.MessagesDropped)
	}
	if s.Recoveries > 0 {
		line += fmt.Sprintf(" recoveries=%d recovery-time=%v",
			s.Recoveries, s.RecoveryTime.Round(time.Millisecond))
	}
	return line
}

// Totals folds PerSuperstep into the job-level rollup, so a superstep
// re-executed after a checkpoint restart counts once.
func (s *Stats) Totals() Totals { return Fold(s.PerSuperstep) }

// PhaseTotals is the job-level compute / barrier / capture breakdown
// the observability layer and bench/ report.
func (s *Stats) PhaseTotals() (compute, barrier, capture time.Duration) {
	t := s.Totals()
	return t.ComputeTime, t.BarrierWait, t.CaptureTime
}

// LocalMessageRatio is Totals.LocalMessageRatio over the job.
func (s *Stats) LocalMessageRatio() float64 { return s.Totals().LocalMessageRatio() }

// MaxComputeSkew returns the worst per-superstep compute skew of the
// job (0 when it ran no supersteps).
func (s *Stats) MaxComputeSkew() float64 { return s.Totals().MaxComputeSkew }

// DefaultNumWorkers is used when Config.NumWorkers is zero, and
// MaxNumWorkers is the most Config.Validate accepts: the message plane
// keeps a lane per (sender, receiver) pair of workers, so its memory
// grows with the square of the count.
const (
	DefaultNumWorkers = 4
	MaxNumWorkers     = 1024
)

// Config configures a Job. The zero value runs with DefaultNumWorkers
// workers, no superstep limit, no master, no combiner and no
// checkpointing.
type Config struct {
	// NumWorkers is the number of workers, each owning one partition of
	// the vertices; at most MaxNumWorkers.
	NumWorkers int
	// MaxSupersteps stops the job after this many supersteps; 0 means
	// unlimited. It is the safety net that surfaces non-converging
	// algorithms (paper §4.3).
	MaxSupersteps int
	// Combiner, if non-nil, merges messages per destination vertex.
	Combiner Combiner
	// Master, if non-nil, runs at the beginning of every superstep.
	Master MasterComputation
	// Listener observes job progress; may be nil.
	Listener JobListener
	// CheckpointEvery writes a checkpoint before every Nth superstep
	// (0 disables checkpointing). Requires CheckpointFS.
	CheckpointEvery int
	// CheckpointFS is where checkpoints are written.
	CheckpointFS dfs.FileSystem
	// CheckpointPrefix prefixes checkpoint file names.
	CheckpointPrefix string
	// FailureAt, if non-nil, is consulted after each superstep's
	// barrier; returning true simulates a worker crash, and the whole
	// job restarts from the latest checkpoint (faults.FailAt builds a
	// one-shot hook).
	FailureAt func(superstep int) bool
	// Partitioner selects the vertex placement, fixed at load for the
	// whole job: PartitionHash (the zero value) is Fibonacci hashing,
	// byte-compatible with every earlier release; PartitionLocality
	// streams vertices in ID order into the partition holding the most
	// of their neighbors (LDG-style, capacity-penalized), recording the
	// result in an assignment table that persists through checkpoints.
	// Placement never changes computation semantics: under
	// order-insensitive combining (min, max, integer sums) trace digests
	// are identical under either mode, while a floating-point sum
	// rounds in arrival order and agrees only to rounding.
	Partitioner PartitionerMode
	// WorkerPool, if non-nil, is a global worker budget shared across
	// jobs: each partition's superstep scan holds one slot while it
	// runs, so a session running many jobs concurrently bounds its total
	// compute parallelism regardless of per-job NumWorkers.
	WorkerPool *WorkerPool
}

type aggEntry struct {
	agg        Aggregator
	persistent bool
}

// Job binds a graph, a computation and a configuration. Construct
// with NewJob, register aggregators, then Run. A Job takes ownership
// of the graph: values and topology are mutated in place, so callers
// that reuse a dataset across runs must pass graph.Clone().
type Job struct {
	cfg  Config
	comp Computation
	// scomp is the subgraph-mode program, set by NewSubgraphJob; the
	// job runs in subgraph mode exactly when it is non-nil.
	scomp    SubgraphComputation
	graph    *Graph
	aggs     map[string]aggEntry
	aggNames []string
}

// NewJob creates a job over g running comp.
func NewJob(g *Graph, comp Computation, cfg Config) *Job {
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = DefaultNumWorkers
	}
	return &Job{cfg: cfg, comp: comp, graph: g, aggs: map[string]aggEntry{}}
}

// RegisterAggregator registers a named aggregator. Persistent
// aggregators accumulate across supersteps; regular ones reset to the
// initial value at every superstep boundary (Giraph semantics).
// Registering a duplicate name panics: it is a programming error that
// would silently corrupt aggregation.
func (j *Job) RegisterAggregator(name string, agg Aggregator, persistent bool) {
	if _, dup := j.aggs[name]; dup {
		panic("pregel: duplicate aggregator registration: " + name)
	}
	j.aggs[name] = aggEntry{agg: agg, persistent: persistent}
	j.aggNames = append(j.aggNames, name)
	sort.Strings(j.aggNames)
}

// Config returns the job's configuration (after defaulting).
func (j *Job) Config() Config { return j.cfg }

// Run executes the job to termination and returns its statistics.
// Stats.Runtime is measured monotonically from here, so it covers
// partitioning, every superstep and any checkpoint recovery.
func (j *Job) Run() (*Stats, error) {
	return j.RunContext(context.Background())
}

// RunContext executes the job under a context. Cancelling the context
// interrupts the job mid-superstep: workers observe the cancellation
// within a bounded number of vertices, the engine shuts down at the
// next barrier boundary without folding the aborted superstep, and the
// job's checkpoints are garbage-collected (a canceled job never
// resumes). The returned error wraps ctx.Err(), and — unlike
// other failures — the partial Stats up to the last completed barrier
// are returned alongside it.
func (j *Job) RunContext(ctx context.Context) (*Stats, error) {
	start := time.Now()
	en := newEngine(j)
	en.ctx = ctx
	return en.run(start)
}

type workerResult struct {
	active     int64
	aggPartial map[string]Value
	removals   []VertexID
	// Counters is the worker's telemetry row, written only by the
	// owning worker goroutine and read by the coordinator after the
	// barrier — the lock-free per-worker collector the metrics layer
	// folds from.
	Counters
}

type engine struct {
	job       *Job
	cfg       *Config
	parts     []*partition
	cur, next *messageStore
	// wctx[w] is worker w's Context, built on its first superstep and
	// reset for each later one.
	wctx []*workerCtx
	// idLo, idHi and idCount are the vertex ID range and count at load
	// time, for which every partition's slot index is built.
	idLo, idHi VertexID
	idCount    int
	broadcast  map[string]Value
	superstep  int
	// stats is allocated on its own: listeners and Run's caller keep it
	// after the job, and a pointer into engine would keep the engine,
	// its graph and inboxes with it.
	stats      *Stats
	flushBatch int
	// slotShift is how many low bits of an edge slot column entry name
	// the destination partition.
	slotShift uint
	// assign records vertices placed away from their hash partition by
	// the locality partitioner at load; partitionFor consults it. Nil
	// for hash placement, so hash-pure jobs cost one nil check.
	assign *idTable
	// partActive[w] is the number of non-halted vertices in partition w
	// (the population of its awake bitmap), maintained at the barrier
	// (worker results, mutations, recovery).
	// A partition with none and an empty inbox shard has an
	// empty frontier, and no worker is launched for it.
	partActive []int64

	lastCheckpoint int // superstep of the last written checkpoint, -1 if none

	// recoveryFrontier marks the superstep the job had reached when a
	// checkpoint restart rewound it: supersteps below the frontier are
	// re-execution, and their wall time is charged to the recovery that
	// caused them (openRecovery indexes the RecoveryEvents entry; -1
	// when no recovery is open).
	recoveryFrontier int
	openRecovery     int

	// anom evaluates the anomaly detectors over the folded superstep
	// telemetry.
	anom *anomaly.Engine

	// scan is how a worker runs its partition's superstep:
	// computeFrontier for a vertex program, computeSubgraphs for a
	// subgraph one. capTime is the program's capture clock, nil when it
	// reports none.
	scan    func(ctx *workerCtx, part *partition, inbox *messageStore, res *workerResult) error
	capTime CaptureTimeReporter

	// ctx carries the job's cancellation signal; never nil after run
	// starts (Background for Job.Run).
	ctx context.Context
	// started is when Run was called, for Stats.Runtime.
	started time.Time

	// wake[w] hands partition w's share of a phase (share) to its
	// goroutine, started on first use; run closes wake and waits for
	// exited. done counts the shares out; results and errs are reused.
	wake         []chan struct{}
	share        func(w int)
	done, exited sync.WaitGroup
	results      []workerResult
	errs         []error
}

func newEngine(j *Job) *engine {
	en := &engine{job: j, cfg: &j.cfg, stats: &Stats{}, lastCheckpoint: -1, openRecovery: -1, flushBatch: msgFlushBatch}
	w := j.cfg.NumWorkers
	en.slotShift = uint(bits.Len(uint(w - 1)))
	vs, ranks := j.graph.ordered()
	if n := len(vs); n > 0 {
		en.idLo, en.idHi, en.idCount = vs[0].id, vs[n-1].id, n
	}
	en.parts = make([]*partition, w)
	for i := range en.parts {
		en.parts[i] = en.newPartition(i)
	}
	en.wctx = make([]*workerCtx, w)
	en.wake, en.results, en.errs = make([]chan struct{}, w), make([]workerResult, w), make([]error, w)
	if j.cfg.Partitioner == PartitionLocality {
		// The placement table must exist before the distribution loop
		// below and before any checkpoint is written, so every consumer
		// of partitionFor — sends, mutations, checkpoint install — agrees
		// on the locality placement from superstep 0.
		en.assign = localityPlacement(vs, ranks, w)
	}
	for _, v := range vs {
		en.parts[en.partitionFor(v.id)].add(v)
	}
	en.partActive = make([]int64, w)
	en.recountActive()
	en.anom = anomaly.New()
	en.scan = en.computeFrontier
	en.capTime, _ = j.comp.(CaptureTimeReporter)
	if j.scomp != nil {
		en.scan = en.computeSubgraphs
		en.capTime, _ = j.scomp.(CaptureTimeReporter)
	}
	en.cur, en.next = newMessageStores(w, j.cfg.Combiner)
	en.broadcast = make(map[string]Value, len(j.aggs))
	for name, entry := range j.aggs {
		en.broadcast[name] = entry.agg.CreateInitial()
	}
	return en
}

// partitionFor maps a vertex ID to a worker: the explicit assignment
// table first (locality placement), Fibonacci
// hashing otherwise. Both paths are allocation-free; hash-pure jobs
// pay one nil check.
func (en *engine) partitionFor(id VertexID) int {
	if t := en.assign; t != nil {
		if p, ok := t.lookup(id); ok {
			return p
		}
	}
	return hashPartition(id, len(en.parts))
}

// edgeCut counts p's out-edges whose target routes to a different
// worker: p's share of the edge-cut objective the locality partitioner
// minimizes. An edge with a slot in a current edge slot column reads
// its partition there; the rest are routed.
func (en *engine) edgeCut(p *partition) (cut int64) {
	mask := uint32(1)<<en.slotShift - 1
	var col []uint32
	if current, _ := en.columnCurrent(p); current {
		col = p.dst
	}
	for _, v := range p.slots {
		if v == nil {
			continue
		}
		for i := range v.edges {
			if col != nil && col[int(v.dst)+i] != noSlot {
				if col[int(v.dst)+i]&mask != uint32(p.idx) {
					cut++
				}
			} else if en.partitionFor(v.edges[i].Target) != p.idx {
				cut++
			}
		}
	}
	return cut
}

// parallel runs fn(w) for every partition w that admit accepts (every
// one when admit is nil) and returns once all have run: each share but
// the last on partition w's job-long goroutine, the last on the caller,
// so a phase with one partition to run wakes no goroutine.
func (en *engine) parallel(admit func(w int) bool, fn func(w int)) {
	en.share = fn
	own := -1 // the last partition admitted so far
	for w := range en.parts {
		if admit != nil && !admit(w) {
			continue
		}
		if o := own; o >= 0 { // not the last: hand it off
			if en.wake[o] == nil {
				wake := make(chan struct{}, 1)
				en.wake[o] = wake
				en.exited.Add(1)
				go func() { // partition o's worker, until run closes wake
					defer en.exited.Done()
					for range wake {
						en.share(o)
						en.done.Done()
					}
				}()
			}
			en.done.Add(1)
			en.wake[o] <- struct{}{}
		}
		own = w
	}
	if own >= 0 {
		fn(own)
	}
	en.done.Wait()
}

// recountActive rebuilds every awake bitmap and partActive from the
// vertices' halted flags — the ground truth after bulk state swaps
// (engine construction, recovery), where incremental bookkeeping has
// nothing to increment from.
func (en *engine) recountActive() {
	for i, p := range en.parts {
		en.partActive[i] = p.syncAwake()
	}
}

func (en *engine) totals() (nv, ne int64) {
	for _, p := range en.parts {
		nv += int64(p.index.len())
		ne += p.edges
	}
	return nv, ne
}

func (en *engine) cloneAggSnapshot() map[string]Value {
	m := make(map[string]Value, len(en.broadcast))
	for name, v := range en.broadcast {
		m[name] = CloneValue(v)
	}
	return m
}

// step is what one superstep's phases hand each other: the totals the
// superstep started with, the worker phase's wall time, and the stats
// row the barrier builds from what the workers returned (en.results).
type step struct {
	start  time.Time
	nv, ne int64
	wall   time.Duration // of the worker phase
	ss     SuperstepStats
}

func (en *engine) run(start time.Time) (*Stats, error) {
	en.started = start
	defer func() {
		for _, c := range en.wake {
			if c != nil {
				close(c)
			}
		}
		en.exited.Wait()
	}()
	if en.ctx == nil {
		en.ctx = context.Background()
	}
	if l := en.cfg.Listener; l != nil {
		nv, ne := en.totals()
		l.JobStarted(JobInfo{NumWorkers: len(en.parts), NumVertices: nv, NumEdges: ne, Stats: en.stats})
	}
	if err := en.cfg.Validate(); err != nil {
		return en.finish(err)
	}
	// The program is a Job property, so it is checked here rather than
	// in Config.Validate.
	if en.job.comp == nil && en.job.scomp == nil {
		return en.finish(invalidf("job without a Computation"))
	}

	for {
		st := step{start: time.Now()}
		if err := en.ctx.Err(); err != nil {
			return en.finish(fmt.Errorf("pregel: job canceled before superstep %d: %w", en.superstep, err))
		}
		if en.cfg.MaxSupersteps > 0 && en.superstep >= en.cfg.MaxSupersteps {
			en.stats.Reason = ReasonMaxSupersteps
			return en.finish(nil)
		}
		st.nv, st.ne = en.totals()
		if err := en.checkpointPhase(); err != nil {
			return en.finish(err)
		}
		halted, err := en.masterPhase(&st)
		if err != nil {
			return en.finish(err)
		}
		if halted {
			en.stats.Reason = ReasonMasterHalted
			return en.finish(nil)
		}
		if err := en.workerPhase(&st); err != nil {
			return en.finish(err)
		}
		if err := en.barrierPhase(&st); err != nil {
			return en.finish(err)
		}
		en.observePhase(&st)
		if err := en.flushPhase(&st); err != nil {
			return en.finish(err)
		}
		rewound, err := en.failurePhase(&st)
		if err != nil {
			return en.finish(err)
		}
		if rewound {
			continue // re-run from the restored checkpoint's superstep
		}
		if en.advance() {
			en.stats.Reason = ReasonConverged
			return en.finish(nil)
		}
	}
}

// finish closes the job's stats, tells the listener, and shapes Run's
// return values.
func (en *engine) finish(err error) (*Stats, error) {
	en.stats.Supersteps = en.superstep
	t := en.stats.Totals()
	en.stats.TotalMessages, en.stats.MessagesDropped = t.MessagesSent, t.MessagesDropped
	en.stats.Runtime = time.Since(en.started)
	en.stats.Partitioner = en.cfg.Partitioner
	en.stats.PartitionSizes = make([]int64, len(en.parts))
	for i, p := range en.parts {
		en.stats.PartitionSizes[i] = int64(p.index.len())
	}
	if err == nil { // O(E), so counted once, here
		cuts := make([]int64, len(en.parts))
		en.parallel(nil, func(w int) { cuts[w] = en.edgeCut(en.parts[w]) })
		for _, c := range cuts {
			en.stats.EdgeCut += c
		}
	}
	// A canceled job never resumes, so its checkpoints are dead weight;
	// GC them before listeners observe the stats, so CheckpointsDeleted
	// reflects the cleanup.
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if canceled && en.cfg.CheckpointFS != nil {
		en.gcCheckpoints(0)
	}
	if l := en.cfg.Listener; l != nil {
		l.JobFinished(en.stats, err)
	}
	if err != nil && !canceled {
		return nil, err
	}
	// Cancellation is barrier-consistent: everything up to the last
	// completed superstep is valid, so — unlike a compute failure — the
	// partial stats are returned with the error.
	return en.stats, err
}

// checkpointPhase writes the pre-superstep state (graph, undelivered
// messages, merged aggregators) before the master can mutate anything.
func (en *engine) checkpointPhase() error {
	if en.cfg.CheckpointEvery <= 0 || en.superstep%en.cfg.CheckpointEvery != 0 ||
		en.superstep == en.lastCheckpoint {
		return nil
	}
	if err := en.writeCheckpoint(); err != nil {
		return fmt.Errorf("pregel: checkpoint at superstep %d: %w", en.superstep, err)
	}
	en.lastCheckpoint = en.superstep
	en.gcCheckpoints(checkpointRetain)
	return nil
}

// masterPhase runs master.compute at the beginning of the superstep,
// with the aggregator values merged from the previous one, and — unless
// the master halted the job — announces the superstep with the
// aggregates as the master left them.
func (en *engine) masterPhase(st *step) (halted bool, err error) {
	if en.cfg.Master != nil {
		mctx := &masterCtx{en: en, numVertices: st.nv, numEdges: st.ne}
		if err := en.safeMasterCompute(mctx); err != nil {
			return false, err
		}
		if mctx.halted {
			return true, nil
		}
	}
	if l := en.cfg.Listener; l != nil {
		l.SuperstepStarted(en.superstep, SuperstepInfo{
			Superstep:   en.superstep,
			NumVertices: st.nv,
			NumEdges:    st.ne,
			Aggregated:  en.cloneAggSnapshot(),
		})
	}
	return false, nil
}

// workerPhase runs every partition with a non-empty frontier, in
// parallel, and waits for all of them.
func (en *engine) workerPhase(st *step) error {
	phaseStart := time.Now()
	clear(en.results)
	clear(en.errs)
	// An empty frontier (nobody awake, nothing pending) yields a zero
	// result, so it is not run; mergeLanes merged the lanes into this
	// shard at the previous barrier, so the shard check is complete.
	live := func(w int) bool { return en.partActive[w] > 0 || en.cur.hasPending(w) }
	nv, ne := st.nv, st.ne
	en.parallel(live, func(w int) {
		// Under a session-wide budget each share, the coordinator's
		// too, holds one pool slot for its scan (see WorkerPool).
		if pool := en.cfg.WorkerPool; pool != nil {
			if err := pool.acquire(en.ctx); err != nil {
				en.errs[w] = fmt.Errorf("pregel: worker %d canceled awaiting pool slot: %w", w, err)
				return
			}
			defer pool.release()
		}
		en.errs[w] = en.runWorker(w, nv, ne, &en.results[w])
	})
	st.wall = time.Since(phaseStart)
	for _, err := range en.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// barrierPhase folds the workers' results into engine state — active
// counts, mutations, aggregators, the lanes into the next superstep's
// inboxes — and into the superstep's stats row.
func (en *engine) barrierPhase(st *step) error {
	var active int64
	for w := range en.results {
		active += en.results[w].active
		// Skipped workers report zero, which is exactly their count.
		en.partActive[w] = en.results[w].active
	}
	en.applyMutations(en.results)
	en.mergeAggregators(en.results)
	// The traffic matrix must be read before mergeLanes merges
	// the lanes into the shards (and zeroes the lane counters); at
	// this point the next store's shards are still empty, so the
	// matrix provably sums to MessagesSent.
	traffic := en.next.trafficMatrix()
	dropped, err := en.mergeLanes()
	if err != nil {
		return err
	}
	st.ss = SuperstepStats{Superstep: en.superstep, ActiveAtEnd: active, Straggler: -1}
	en.foldTelemetry(&st.ss, en.results, st.wall)
	st.ss.MessagesDropped = dropped
	st.ss.MessagesCombined = en.next.combinedTotal()
	st.ss.Traffic = traffic
	for w := range traffic {
		st.ss.LocalMessages += traffic[w][w]
	}
	return nil
}

// observePhase hands the superstep's folded telemetry to the anomaly
// detectors.
func (en *engine) observePhase(st *step) {
	ss := &st.ss
	ss.Anomalies = en.anom.Observe(en.anomalySample(ss))
}

// flushPhase is the barrier flush: listeners that write a trace commit
// it here, so everything captured up to this
// barrier is durable before the superstep is announced as finished.
func (en *engine) flushPhase(st *step) error {
	listener := en.cfg.Listener
	if bf, ok := listener.(BarrierFlusher); ok {
		flushStart := time.Now()
		if err := bf.BarrierFlush(en.superstep); err != nil {
			return fmt.Errorf("pregel: trace flush at superstep %d: %w", en.superstep, err)
		}
		st.ss.FlushTime = time.Since(flushStart)
	}
	en.stats.PerSuperstep = append(en.stats.PerSuperstep, st.ss)
	if listener != nil {
		listener.SuperstepFinished(en.superstep, st.ss)
	}
	return nil
}

// advance ends the superstep: what was sent becomes what is delivered,
// the drained store takes the next sends, and the superstep number
// moves on. It reports convergence — no vertex awake in any partition
// and no inbox with mail.
func (en *engine) advance() (converged bool) {
	converged = true
	for w := range en.parts {
		if en.partActive[w] > 0 || en.next.hasPending(w) {
			converged = false
			break
		}
	}
	en.cur, en.next = en.next, en.cur
	en.next.reset()
	en.superstep++
	return converged
}

func (en *engine) safeMasterCompute(mctx *masterCtx) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ComputeError{
				VertexID:  MasterVertexID,
				Superstep: en.superstep,
				Panic:     p,
				Stack:     string(debug.Stack()),
			}
		}
	}()
	if cerr := en.cfg.Master.Compute(mctx); cerr != nil {
		return &ComputeError{VertexID: MasterVertexID, Superstep: en.superstep, Err: cerr}
	}
	return nil
}

// workerCtx returns worker w's Context reset for this superstep, with
// its row of the lane matrix covering every partition's slots. The
// context and its aggregation map are built once and reused:
// everything a superstep hands the barrier (aggregator partials,
// mutation requests) is consumed before the next one starts.
func (en *engine) workerCtx(w int, nv, ne int64) *workerCtx {
	ctx := en.wctx[w]
	if ctx == nil {
		ctx = &workerCtx{en: en, worker: w, scalar: en.next.scalar, box: en.next.scalar.box(0), aggPartial: map[string]Value{}}
		en.wctx[w] = ctx
	}
	ctx.superstep, ctx.numVertices, ctx.numEdges = en.superstep, nv, ne
	ctx.out = en.next.lanes[w]
	if en.cfg.Combiner != nil {
		for p, part := range en.parts {
			en.next.grow(&ctx.out[p].cells, len(part.slots))
		}
	}
	ctx.computing, ctx.resolved, ctx.agg = nil, false, nil
	clear(ctx.aggPartial)
	ctx.removals = ctx.removals[:0]
	return ctx
}

// runWorker runs worker w's superstep: the program's scan of its
// partition, then what the worker hands the barrier, in res.
func (en *engine) runWorker(w int, nv, ne int64, res *workerResult) error {
	t0 := time.Now()
	var capBefore int64
	if en.capTime != nil {
		capBefore = en.capTime.CaptureNanos(w)
	}
	ctx := en.workerCtx(w, nv, ne)
	if err := en.scan(ctx, en.parts[w], en.cur, res); err != nil {
		return err
	}
	res.MessagesSent = ctx.sentTotal()
	res.aggPartial = ctx.aggPartial
	res.removals = ctx.removals
	res.ComputeTime = time.Since(t0)
	if en.capTime != nil {
		// A sampled estimate can overshoot the phase it was taken in.
		res.CaptureTime = min(time.Duration(en.capTime.CaptureNanos(w)-capBefore), res.ComputeTime)
	}
	return nil
}

// computeFrontier runs one superstep of vertex computes over part: the
// vertices that are awake or have mail in inbox's shard, found by
// walking the set bits of awake|pending a word at a time, over the words
// the two summaries mark. Bits come out in ascending slot order, so the
// visit order is the one a scan of every slot would produce, whatever
// share of the partition is live.
func (en *engine) computeFrontier(ctx *workerCtx, part *partition, inbox *messageStore, res *workerResult) error {
	sh := &inbox.shards[part.idx]
	inbox.grow(&sh.cells, len(part.slots))
	awake, pending := part.awake, sh.pending
	for si, s := range awake.sum {
		for s |= pending.sum[si]; s != 0; s &= s - 1 {
			wi := si<<6 + bits.TrailingZeros64(s)
			word := awake.w[wi] | pending.w[wi]
			// Poll for cancellation once per live word — at most 64
			// computes apart — so a Job.Cancel lands mid-superstep; the
			// coordinator still drives every worker to the barrier, so
			// the shutdown stays barrier-consistent.
			if word != 0 && en.ctx.Err() != nil {
				return fmt.Errorf("pregel: worker %d canceled in superstep %d: %w", ctx.worker, ctx.superstep, en.ctx.Err())
			}
			for ; word != 0; word &= word - 1 {
				slot := wi<<6 + bits.TrailingZeros64(word)
				v := part.slots[slot]
				var msgs []Value
				if pending.test(slot) {
					if inbox.scalar == 0 {
						msgs = inbox.takeCell(&sh.cells, slot)
					} else { // in the worker's reused box
						pending.clear(slot)
						inbox.scalar.setBox(ctx.box, sh.cs[slot])
						ctx.inbox[0], msgs = ctx.box, ctx.inbox[:]
					}
					v.halted = false
				}
				res.VerticesProcessed++
				res.MessagesReceived += int64(len(msgs))
				ctx.computing = v
				if err := en.safeCompute(ctx, v, msgs); err != nil {
					return err
				}
				if v.halted {
					awake.clear(slot)
				} else {
					awake.set(slot)
					res.active++
				}
			}
			awake.tidy(wi)
			pending.tidy(wi)
		}
	}
	return nil
}

// foldTelemetry sums the workers' counters into the superstep's at the
// barrier: the coordinator is the only goroutine running, so no
// synchronization is needed. A worker's barrier wait is the time it
// idled for the slowest worker: phase wall time minus its own compute
// time. The superstep's ComputeTime is that wall time.
func (en *engine) foldTelemetry(ss *SuperstepStats, results []workerResult, wall time.Duration) {
	n := len(results)
	ss.Workers = make([]WorkerStepStats, n)
	var maxCompute, sumCompute time.Duration
	var maxSent, sumSent int64
	for w := range results {
		c := results[w].Counters
		c.BarrierWait = max(wall-c.ComputeTime, 0)
		ss.Workers[w] = WorkerStepStats{Worker: w, Counters: c}
		ss.Counters.Add(c)
		if c.ComputeTime > maxCompute {
			maxCompute = c.ComputeTime
			ss.Straggler = w
		}
		sumCompute += c.ComputeTime
		maxSent = max(maxSent, c.MessagesSent)
		sumSent += c.MessagesSent
	}
	ss.ComputeTime = wall
	if sumCompute > 0 {
		ss.ComputeSkew = float64(maxCompute) * float64(n) / float64(sumCompute)
	}
	if sumSent > 0 {
		ss.MessageSkew = float64(maxSent) * float64(n) / float64(sumSent)
	}
}

// anomalySample projects one superstep's folded telemetry into the
// anomaly package's input form, adding the cumulative recovery and
// corrupt-checkpoint counts the recovery-storm and fault-spike
// detectors difference across their window. Runs on the coordinator at
// the barrier.
func (en *engine) anomalySample(ss *SuperstepStats) anomaly.Sample {
	return anomaly.Sample{
		Superstep:          ss.Superstep,
		ComputeSkew:        ss.ComputeSkew,
		MessageSkew:        ss.MessageSkew,
		Straggler:          ss.Straggler,
		Sent:               ss.MessagesSent,
		Received:           ss.MessagesReceived,
		Combined:           ss.MessagesCombined,
		Traffic:            ss.Traffic,
		Recoveries:         en.stats.Recoveries,
		CorruptCheckpoints: en.stats.Faults.CorruptCheckpoints,
	}
}

func (en *engine) safeCompute(ctx *workerCtx, v *Vertex, msgs []Value) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ComputeError{
				VertexID:  v.id,
				Superstep: ctx.superstep,
				Worker:    ctx.worker,
				Panic:     p,
				Stack:     string(debug.Stack()),
			}
		}
	}()
	if cerr := en.job.comp.Compute(ctx, v, msgs); cerr != nil {
		return &ComputeError{VertexID: v.id, Superstep: ctx.superstep, Worker: ctx.worker, Err: cerr}
	}
	return nil
}

// mergeLanes merges each lane-matrix column that holds mail into its
// shard, on the partition's worker — the post-barrier single reader the
// lane design relies on — and returns how many messages were addressed
// to vertices that do not exist: those are discarded at the merge. A
// user combiner that panics while messages meet here fails the job like
// a panicking Compute does.
func (en *engine) mergeLanes() (int64, error) {
	clear(en.errs)
	inbound := func(w int) bool {
		for s := range en.next.lanes {
			if en.next.lanes[s][w].n != 0 {
				return true
			}
		}
		return false
	}
	en.parallel(inbound, func(w int) {
		defer func() {
			if p := recover(); p != nil {
				en.errs[w] = &ComputeError{
					VertexID:  en.next.shards[w].merging,
					Superstep: en.superstep,
					Worker:    w,
					Panic:     p,
					Stack:     string(debug.Stack()),
				}
			}
		}()
		en.next.mergeLane(en.parts[w])
	})
	var dropped int64
	for w, err := range en.errs {
		if err != nil {
			return 0, err
		}
		dropped += en.next.shards[w].dropped
	}
	return dropped, nil
}

// compact rebuilds a partition's slot array and carries the pending
// next-superstep inbox along.
func (en *engine) compact(p *partition) {
	perm := p.rebuild()
	en.next.remap(p.idx, perm, len(p.slots))
}

// applyMutations removes the vertices queued for removal, on the
// coordinator goroutine, then folds the workers' edge deltas and
// compacts every partition whose tombstones outnumber its live slots.
func (en *engine) applyMutations(results []workerResult) {
	for w := range results {
		for _, id := range results[w].removals {
			p := en.parts[en.partitionFor(id)]
			slot, ok := p.index.lookup(id)
			if !ok {
				continue
			}
			if !p.slots[slot].halted {
				en.partActive[p.idx]--
			}
			// Removed vertices leave the computation but stay reachable
			// through the input graph: their final state is often the
			// algorithm's output (matching partners in MWM). The lanes are
			// still unmerged: what senders folded into the slot's cells
			// becomes entries for its ID.
			en.next.evict(p.idx, slot, id)
			p.remove(slot)
		}
	}
	for _, p := range en.parts {
		p.edges += int64(p.edgeDelta)
		p.edgeDelta = 0
		if p.needsCompaction() {
			en.compact(p)
		}
	}
}

// mergeAggregators folds worker aggregator partials into the broadcast
// map for the next superstep. Regular aggregators restart from their
// initial value; persistent ones accumulate onto the current broadcast.
func (en *engine) mergeAggregators(results []workerResult) {
	next := make(map[string]Value, len(en.job.aggs))
	for _, name := range en.job.aggNames {
		entry := en.job.aggs[name]
		var acc Value
		if entry.persistent {
			acc = en.broadcast[name]
		} else {
			acc = entry.agg.CreateInitial()
		}
		for w := range results {
			if p, ok := results[w].aggPartial[name]; ok {
				acc = entry.agg.Aggregate(acc, p)
			}
		}
		next[name] = acc
	}
	en.broadcast = next
}
