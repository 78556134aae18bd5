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
	// TotalMessages counts messages sent over the whole job, before
	// combining.
	TotalMessages int64
	// MessagesDropped counts messages addressed to nonexistent
	// vertices when Config.CreateMissingVertices is false.
	MessagesDropped int64
	// Recoveries counts recoveries triggered by failure injection
	// (checkpoint restarts and confined log replays alike).
	Recoveries int
	// RecoveryEvents has one entry per recovery with its confinement
	// breakdown: which partitions failed, which mode recovered them, how
	// many supersteps and bytes were replayed and how long it took.
	RecoveryEvents []RecoveryEvent
	// MessagesLogged and BytesLogged count the outbox-log volume written
	// by RecoveryLog's sender-side message logging (zero in checkpoint
	// mode).
	MessagesLogged int64
	BytesLogged    int64
	// Faults aggregates storage-resilience counters: faults injected
	// into the checkpoint/trace file systems and the retries, fallbacks
	// and skipped checkpoints that absorbed them.
	Faults FaultStats
	// Runtime is the monotonic wall time of Job.Run: partitioning,
	// every superstep, and checkpoint recovery.
	Runtime time.Duration
	// RecoveryTime is the portion of Runtime spent restoring
	// checkpoints after simulated worker crashes.
	RecoveryTime time.Duration
	// Rebalances counts barriers at which the rebalancer migrated
	// vertices (zero unless rebalancing is enabled).
	Rebalances int
	// VerticesMigrated counts vertices the rebalancer moved between
	// partitions over the whole job.
	VerticesMigrated int64
	// Partitioner is the placement mode the job ran with.
	Partitioner PartitionerMode
	// PartitionSizes is the per-worker vertex count at job end — the
	// placement-quality view graft show and the GUI render.
	PartitionSizes []int64
	// EdgeCut is the number of directed edges whose endpoints ended the
	// job on different workers (zero for a job that failed or was canceled).
	EdgeCut int64
	// Anomalies collects every event the anomaly detectors emitted over
	// the job, in superstep order (nil when detection is disabled).
	Anomalies []anomaly.Event
	// PerSuperstep has one entry per executed superstep.
	PerSuperstep []SuperstepStats
}

// String renders the headline of the summary the CLI prints after a
// run; placement, phases, rebalancing and the rest of the job's numbers
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

// Totals folds PerSuperstep into the job-level rollup. A checkpoint
// restart truncates PerSuperstep back to the restored superstep, so a
// re-executed superstep counts once here; a listener folding every
// SuperstepFinished it saw (the metrics registry) counts it each time
// it ran, and the two differ by exactly the re-executed rows.
func (s *Stats) Totals() Totals {
	var t Totals
	for _, ss := range s.PerSuperstep {
		t.Add(ss)
	}
	return t
}

// PhaseTotals is the job-level compute / barrier / capture breakdown
// the observability layer and graft-bench report.
func (s *Stats) PhaseTotals() (compute, barrier, capture time.Duration) {
	t := s.Totals()
	return time.Duration(t.ComputeNanos), time.Duration(t.BarrierNanos), time.Duration(t.CaptureNanos)
}

// LocalMessageRatio is Totals.LocalMessageRatio over the job.
func (s *Stats) LocalMessageRatio() float64 { return s.Totals().LocalMessageRatio() }

// MaxComputeSkew returns the worst per-superstep compute skew of the
// job (0 when it ran no supersteps).
func (s *Stats) MaxComputeSkew() float64 { return s.Totals().MaxComputeSkew }

// DefaultNumWorkers is used when Config.NumWorkers is zero.
const DefaultNumWorkers = 4

// Config configures a Job. The zero value runs with DefaultNumWorkers
// workers, no superstep limit, no master, no combiner and no
// checkpointing.
type Config struct {
	// NumWorkers is the number of concurrent worker goroutines, each
	// owning one hash partition of the vertices.
	NumWorkers int
	// MaxSupersteps stops the job after this many supersteps; 0 means
	// unlimited. It is the safety net that surfaces non-converging
	// algorithms (paper §4.3).
	MaxSupersteps int
	// Combiner, if non-nil, merges messages per destination vertex.
	Combiner Combiner
	// Master, if non-nil, runs at the beginning of every superstep.
	Master MasterComputation
	// CreateMissingVertices makes a message to a nonexistent vertex
	// create it (Giraph's default resolver). When false such messages
	// are dropped and counted in Stats.MessagesDropped.
	CreateMissingVertices bool
	// DefaultVertexValue supplies values for vertices created by
	// CreateMissingVertices and AddVertexRequest(id, nil).
	DefaultVertexValue func() Value
	// Listener observes job progress; may be nil.
	Listener JobListener
	// CheckpointEvery writes a checkpoint before every Nth superstep
	// (0 disables checkpointing). Requires CheckpointFS.
	CheckpointEvery int
	// CheckpointFS is where checkpoints are written.
	CheckpointFS FileSystem
	// CheckpointPrefix prefixes checkpoint file names.
	CheckpointPrefix string
	// FailureAt, if non-nil, is consulted after each superstep's
	// barrier; returning true simulates a whole-job worker crash,
	// forcing recovery of every partition. Used by fault-tolerance
	// tests.
	FailureAt func(superstep int) bool
	// PartitionFailureAt, if non-nil, is consulted after each
	// superstep's barrier; returning a non-empty list simulates a crash
	// of just those partitions. Under RecoveryLog only the listed
	// partitions roll back and replay; under RecoveryCheckpoint any
	// failure still restarts the whole job from the latest checkpoint.
	PartitionFailureAt func(superstep int) []int
	// Recovery selects the recovery strategy for injected failures.
	// RecoveryCheckpoint (the zero value) restarts the whole job from
	// the latest checkpoint; RecoveryLog confines recomputation to the
	// failed partitions, replaying their inboxes from the sender-side
	// outbox logs. RecoveryLog requires MsgLogFS.
	Recovery RecoveryMode
	// MsgLogFS is where RecoveryLog's outbox logs are written. Required
	// when Recovery is RecoveryLog.
	MsgLogFS FileSystem
	// RebalanceSkew enables skew-driven adaptive repartitioning: when a
	// superstep's ComputeSkew or MessageSkew reaches this threshold
	// (max/mean; 1.0 is perfectly balanced), the hottest vertices
	// migrate off the straggler partition at the barrier. 0 disables
	// rebalancing.
	RebalanceSkew float64
	// RebalanceMaxMoves caps the vertices migrated per rebalance; 0
	// means the default (1024).
	RebalanceMaxMoves int
	// RebalanceObjective selects what rebalancing optimizes.
	// ObjectiveSkew (the zero value) is the load objective gated by
	// RebalanceSkew. ObjectiveEdgeCut migrates boundary vertices toward
	// their heaviest communication partner whenever the traffic matrix
	// shows a dominant cross-partition lane; it is self-enabling
	// (RebalanceSkew is not consulted) and requires a non-negative
	// AnomalyWindow, since the traffic matrix feeds the decision.
	RebalanceObjective RebalanceObjective
	// Partitioner selects the initial vertex placement: PartitionHash
	// (the zero value) is Fibonacci hashing, byte-compatible with
	// every earlier release; PartitionLocality streams vertices in ID
	// order into the partition holding the most of their neighbors
	// (LDG-style, capacity-penalized), recording the result in an
	// assignment table that persists through checkpoints, confined
	// recovery and migrations. Placement never changes computation
	// semantics — trace digests are identical under either mode.
	Partitioner PartitionerMode
	// AnomalyWindow is the sliding-window size (in supersteps) of the
	// anomaly detectors; 0 means the default (anomaly.DefaultWindow).
	// A negative value disables detection and the traffic-matrix
	// capture that feeds it.
	AnomalyWindow int
	// ComputeMode selects the unit of computation: ModeVertex (the zero
	// value) runs Computation.Compute per vertex; ModeSubgraph runs
	// SubgraphComputation.ComputeSubgraph per connected component of a
	// partition (build the job with NewSubgraphJob). Message transport,
	// aggregators, checkpoints, recovery and rebalancing are
	// mode-independent.
	ComputeMode ComputeMode
	// WorkerPool, if non-nil, is a global worker budget shared across
	// jobs: each worker goroutine holds one slot for its superstep scan,
	// so a session running many jobs concurrently bounds its total
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
	// scomp is the ModeSubgraph program (nil in vertex mode); set by
	// NewSubgraphJob.
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
// job's checkpoints and outbox logs are garbage-collected (a canceled
// job never resumes). The returned error wraps ctx.Err(), and — unlike
// other failures — the partial Stats up to the last completed barrier
// are returned alongside it.
func (j *Job) RunContext(ctx context.Context) (*Stats, error) {
	start := time.Now()
	en := newEngine(j)
	en.ctx = ctx
	return en.run(start)
}

type vertexAddition struct {
	id    VertexID
	value Value
}

type workerResult struct {
	active     int64
	sent       int64
	aggPartial map[string]Value
	removals   []VertexID
	additions  []vertexAddition
	// Telemetry, written only by the owning worker goroutine and read
	// by the coordinator after the barrier — the lock-free per-worker
	// collector the metrics layer folds from.
	vertices     int64
	received     int64
	computeNanos int64
	captureNanos int64
	// subgraphs and iterations are ModeSubgraph telemetry: components
	// computed and internal sequential iterations reported via
	// SubgraphContext.AddIterations.
	subgraphs  int64
	iterations int64
}

type engine struct {
	job       *Job
	cfg       *Config
	parts     []*partition
	cur, next *messageStore
	// wctx[w] is worker w's Context, built on its first superstep and
	// reset for each later one.
	wctx []*workerCtx
	// idBase/idSpan is the vertex ID range at load time, over which every
	// partition's slot index is dense (span 0: IDs too scattered, the
	// indexes are sparse-only).
	idBase     VertexID
	idSpan     int
	broadcast  map[string]Value
	superstep  int
	stats      Stats
	pool       *batchPool
	flushBatch int
	// assign records vertices placed away from their hash partition —
	// by the locality partitioner at load and by the rebalancer at
	// migration; partitionFor consults it. Nil until the first
	// divergence, so hash-pure jobs cost one nil check.
	assign *assignTable
	// edgeCut caches the current cross-partition directed-edge count;
	// edgeCutDirty flags that placement or topology changed since it
	// was computed (mutation, migration, recovery), so the barrier
	// recomputes it lazily — static graphs pay the O(E) scan once.
	edgeCut      int64
	edgeCutDirty bool
	// partActive[w] is the number of non-halted vertices in partition w
	// (the population of its awake bitmap), maintained at the barrier
	// (worker results, mutations, missing-vertex creation, migration,
	// recovery). A partition with none and an empty inbox shard has an
	// empty frontier, and no worker is launched for it.
	partActive []int64

	lastCheckpoint int // superstep of the last written checkpoint, -1 if none

	// msglog is the sender-side outbox log (nil unless RecoveryLog);
	// history holds the per-superstep aggregate snapshots confined
	// replay re-runs computes against.
	msglog  *msgLog
	history map[int]stepSnapshot
	// recoveryFrontier marks the superstep the job had reached when a
	// checkpoint restart rewound it: supersteps below the frontier are
	// re-execution, and their wall time is charged to the recovery that
	// caused them (openRecovery indexes the RecoveryEvents entry; -1
	// when no recovery is open). Confined replay never sets these — its
	// whole cost is inside the recovery call.
	recoveryFrontier int
	openRecovery     int
	// lastMigration is the superstep of the most recent rebalancer
	// migration (-1 if none); replay uses it to decide whether logged
	// frame destinations still match current routing.
	lastMigration int

	// anom evaluates the anomaly detectors over the folded superstep
	// telemetry (nil when detection is disabled).
	anom *anomaly.Engine

	// ctx carries the job's cancellation signal; never nil after run
	// starts (Background for Job.Run).
	ctx context.Context
	// started is when Run was called, for Stats.Runtime.
	started time.Time
}

func newEngine(j *Job) *engine {
	en := &engine{job: j, cfg: &j.cfg, lastCheckpoint: -1, pool: &batchPool{},
		openRecovery: -1, lastMigration: -1, flushBatch: msgFlushBatch}
	w := j.cfg.NumWorkers
	ids := j.graph.VertexIDs()
	if n := len(ids); n > 0 {
		// Dense indexes only when the ID range is at least 25% occupied
		// (the assignTable's rule); scattered IDs fall back to the map.
		if span := uint64(ids[n-1]-ids[0]) + 1; span <= 4*uint64(n) {
			en.idBase, en.idSpan = ids[0], int(span)
		}
	}
	en.parts = make([]*partition, w)
	for i := range en.parts {
		en.parts[i] = en.newPartition(i)
	}
	en.wctx = make([]*workerCtx, w)
	en.edgeCutDirty = true
	if j.cfg.Partitioner == PartitionLocality {
		// The placement table must exist before the distribution loop
		// below and before any checkpoint or outbox log is written, so
		// every consumer of partitionFor — sends, mutations, recovery
		// replay — agrees on the locality placement from superstep 0.
		en.assign = localityPlacement(j.graph, w)
	}
	for _, id := range ids {
		en.parts[en.partitionFor(id)].add(j.graph.vertices[id])
	}
	en.partActive = make([]int64, w)
	en.recountActive()
	if j.cfg.AnomalyWindow >= 0 {
		en.anom = anomaly.New(anomaly.Config{Window: j.cfg.AnomalyWindow})
	}
	en.cur = en.newStore()
	en.next = en.newStore()
	en.broadcast = make(map[string]Value, len(j.aggs))
	for name, entry := range j.aggs {
		en.broadcast[name] = entry.agg.CreateInitial()
	}
	return en
}

// newStore builds a message store sharing the engine-wide batch pool.
func (en *engine) newStore() *messageStore {
	return newMessageStore(len(en.parts), en.cfg.Combiner, en.pool)
}

// partitionFor maps a vertex ID to a worker: the explicit assignment
// table first (locality placement, rebalancer migrations), Fibonacci
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

// computeEdgeCut scans every partition's out-edges and counts those
// whose target routes to a different worker: the edge-cut objective
// the locality partitioner and edgecut rebalancer minimize. O(E); the
// engine caches the result and recomputes only when placement or
// topology changed.
func (en *engine) computeEdgeCut() int64 {
	var cut int64
	for _, p := range en.parts {
		for _, v := range p.slots {
			if v == nil {
				continue
			}
			for i := range v.edges {
				if en.partitionFor(v.edges[i].Target) != p.idx {
					cut++
				}
			}
		}
	}
	return cut
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
		nv += int64(p.live)
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
// superstep started with, what its workers returned, and the stats row
// the barrier builds from them.
type step struct {
	start   time.Time
	nv, ne  int64
	results []workerResult
	wall    time.Duration // of the worker phase
	ss      SuperstepStats
}

func (en *engine) run(start time.Time) (*Stats, error) {
	en.started = start
	if en.ctx == nil {
		en.ctx = context.Background()
	}
	if l := en.cfg.Listener; l != nil {
		nv, ne := en.totals()
		l.JobStarted(JobInfo{NumWorkers: len(en.parts), NumVertices: nv, NumEdges: ne})
	}
	if err := en.cfg.Validate(); err != nil {
		return en.finish(err)
	}
	// Mode↔computation consistency is a Job property, so it is checked
	// here rather than in Config.Validate.
	if en.cfg.ComputeMode == ModeSubgraph && en.job.scomp == nil {
		return en.finish(invalidf("ComputeMode = subgraph without a SubgraphComputation (build the job with NewSubgraphJob)"))
	}
	if en.cfg.ComputeMode == ModeVertex && en.job.comp == nil {
		return en.finish(invalidf("ComputeMode = vertex without a Computation"))
	}
	if en.cfg.Recovery == RecoveryLog {
		en.msglog = newMsgLog(en.cfg.MsgLogFS, len(en.parts))
		en.history = make(map[int]stepSnapshot)
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
		en.logPhase(&st)
		if err := en.barrierPhase(&st); err != nil {
			return en.finish(err)
		}
		en.rebalancePhase(&st)
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
	en.stats.Runtime = time.Since(en.started)
	en.stats.Partitioner = en.cfg.Partitioner
	en.stats.PartitionSizes = make([]int64, len(en.parts))
	for i, p := range en.parts {
		en.stats.PartitionSizes[i] = int64(p.live)
	}
	if err == nil {
		en.stats.EdgeCut = en.currentEdgeCut()
	}
	// A canceled job never resumes, so its recovery artifacts —
	// checkpoints and outbox-log segments — are dead weight; GC them
	// before listeners observe the stats, so CheckpointsDeleted
	// reflects the cleanup.
	canceled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if canceled {
		en.cleanupCanceled()
	}
	// Fold in the checkpoint file system's resilience counters
	// before listeners observe the stats; Graft's listener adds the
	// trace file system's own on top.
	if p, ok := en.cfg.CheckpointFS.(FaultStatsProvider); ok {
		en.stats.Faults.Add(p.FaultStats())
	}
	if l := en.cfg.Listener; l != nil {
		l.JobFinished(&en.stats, err)
	}
	if err != nil && !canceled {
		return nil, err
	}
	// Cancellation is barrier-consistent: everything up to the last
	// completed superstep is valid, so — unlike a compute failure — the
	// partial stats are returned with the error.
	return &en.stats, err
}

// currentEdgeCut returns the cross-partition edge count under the
// current placement, rescanning only if placement or topology changed
// since the last scan.
func (en *engine) currentEdgeCut() int64 {
	if en.edgeCutDirty {
		en.edgeCut = en.computeEdgeCut()
		en.edgeCutDirty = false
	}
	return en.edgeCut
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
	en.gcCheckpoints()
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
	// Confined replay re-runs a superstep's computes without
	// re-running the master phase, so it needs this superstep's
	// post-master aggregate broadcast and totals as they were.
	if en.msglog != nil {
		en.history[en.superstep] = stepSnapshot{nv: st.nv, ne: st.ne, aggs: en.cloneAggSnapshot()}
	}
	return false, nil
}

// workerPhase runs every partition with a non-empty frontier on its own
// goroutine and waits for all of them.
func (en *engine) workerPhase(st *step) error {
	phaseStart := time.Now()
	st.results = make([]workerResult, len(en.parts))
	errs := make([]error, len(en.parts))
	var wg sync.WaitGroup
	for w := range en.parts {
		// An empty frontier — nobody awake, nothing pending — yields an
		// identically zero worker result, so no goroutine is spawned
		// for it. (Lanes into this shard were merged by
		// integrateMissing at the previous barrier, so the shard check
		// is complete.)
		if en.partActive[w] == 0 && !en.cur.hasPending(w) {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Under a session-wide budget each worker holds one pool
			// slot for its scan; a slot is always released at the
			// barrier, so the gate serializes but cannot deadlock.
			if pool := en.cfg.WorkerPool; pool != nil {
				if err := pool.acquire(en.ctx); err != nil {
					errs[w] = fmt.Errorf("pregel: worker %d canceled awaiting pool slot: %w", w, err)
					return
				}
				defer pool.release()
			}
			if en.cfg.ComputeMode == ModeSubgraph {
				st.results[w], errs[w] = en.runSubgraphWorker(w, st.nv, st.ne)
			} else {
				st.results[w], errs[w] = en.runWorker(w, st.nv, st.ne)
			}
		}(w)
	}
	wg.Wait()
	st.wall = time.Since(phaseStart)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// logPhase is sender-side outbox logging: it persists this superstep's
// outgoing batches and mutation requests before the lanes are merged
// away (mergeLane recycles the batches), so confined recovery can
// replay them. A log write failure is non-fatal — the log is marked
// broken and recovery falls back to checkpoint restart.
func (en *engine) logPhase(st *step) {
	if en.msglog == nil {
		return
	}
	logged, bytes, err := en.msglog.logSuperstep(en.superstep, en.next, st.results)
	en.stats.MessagesLogged += logged
	en.stats.BytesLogged += bytes
	if err != nil {
		en.stats.Faults.CorruptLogSegments++
	}
}

// barrierPhase folds the workers' results into engine state — active
// counts, mutations, aggregators, the lanes into the next superstep's
// inboxes — and into the superstep's stats row.
func (en *engine) barrierPhase(st *step) error {
	var active int64
	for w := range st.results {
		active += st.results[w].active
		// Skipped workers report zero, which is exactly their count.
		en.partActive[w] = st.results[w].active
	}
	en.applyMutations(st.results)
	en.mergeAggregators(st.results)
	sent := en.next.total()
	en.stats.TotalMessages += sent
	// The traffic matrix must be read before integrateMissing merges
	// the lanes into the shards (and zeroes the lane counters); at
	// this point the next store's shards are still empty, so the
	// matrix provably sums to MessagesSent.
	var traffic [][]int64
	if en.anom != nil {
		traffic = en.next.trafficMatrix()
	}
	dropped, err := en.integrateMissing()
	if err != nil {
		return err
	}
	en.stats.MessagesDropped += dropped
	st.ss = SuperstepStats{Superstep: en.superstep, ActiveAtEnd: active, MessagesSent: sent, Straggler: -1}
	st.ss.MessagesCombined = en.next.combinedTotal()
	en.foldTelemetry(&st.ss, st.results, st.wall)
	st.ss.Traffic = traffic
	for w := range traffic {
		st.ss.LocalMessages += traffic[w][w]
	}
	return nil
}

// rebalancePhase acts on the superstep's folded telemetry: the anomaly
// detectors observe it, and the rebalancer the job is configured with
// migrates vertices on what they (or the traffic matrix) show.
func (en *engine) rebalancePhase(st *step) {
	ss := &st.ss
	if en.anom != nil || en.cfg.RebalanceSkew > 0 {
		sample := en.anomalySample(ss)
		if en.anom != nil {
			ss.Anomalies = en.anom.Observe(sample)
			en.stats.Anomalies = append(en.stats.Anomalies, ss.Anomalies...)
		}
		if en.cfg.RebalanceSkew > 0 && en.cfg.RebalanceObjective == ObjectiveSkew {
			en.rebalance(ss, anomaly.EvaluateSkew(sample, en.cfg.RebalanceSkew))
		}
	}
	if en.cfg.RebalanceObjective == ObjectiveEdgeCut {
		en.rebalanceEdgeCut(ss)
	}
	// Edge cut is recorded after rebalancing so the superstep's
	// row reflects the placement the next superstep runs under.
	ss.EdgeCut = en.currentEdgeCut()
}

// flushPhase is the barrier flush: listeners with an async capture
// pipeline drain and commit it here, so everything captured up to this
// barrier is durable before the superstep is announced as finished.
func (en *engine) flushPhase(st *step) error {
	listener := en.cfg.Listener
	if bf, ok := listener.(BarrierFlusher); ok {
		if qr, ok := listener.(CaptureQueueReporter); ok {
			st.ss.CaptureQueueDepth = qr.CaptureQueueDepth()
		}
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

// failurePhase consults the failure-injection hooks for this barrier
// and recovers from what they report. After a confined replay the
// failed partitions are back at this barrier, their next-superstep
// inboxes rebuilt, and the job advances as if nothing had failed;
// rewound reports a checkpoint restart, which has put en.superstep and
// the stores back to the checkpoint's, so the caller must not advance.
func (en *engine) failurePhase(st *step) (rewound bool, err error) {
	en.chargeReexecution(st)
	failedParts, failed := en.checkFailure(en.superstep)
	if !failed {
		return false, nil
	}
	recStart := time.Now()
	if err := en.consumeRecoveryBudget(); err != nil {
		en.stats.RecoveryTime += time.Since(recStart)
		return false, err
	}
	ev := RecoveryEvent{Superstep: en.superstep, Partitions: failedParts}
	if en.cfg.Recovery == RecoveryLog {
		err := en.confinedRecover(failedParts, &ev)
		if err == nil {
			ev.Mode = "log"
			ev.Duration = time.Since(recStart)
			en.stats.RecoveryTime += ev.Duration
			en.stats.RecoveryEvents = append(en.stats.RecoveryEvents, ev)
			return false, nil
		}
		if !errors.Is(err, errReplayUnusable) {
			en.stats.RecoveryTime += time.Since(recStart)
			return false, err
		}
		// The outbox logs cannot drive a confined replay
		// (corrupt segment, missing history, broken writer):
		// degrade to a full checkpoint restart.
	}
	failedAt := en.superstep
	if err := en.restoreNewestIntact(); err != nil {
		en.stats.RecoveryTime += time.Since(recStart)
		return false, err
	}
	ev.Mode = "checkpoint"
	ev.CheckpointSuperstep = en.superstep
	ev.PartitionsRecomputed = len(en.parts)
	ev.Duration = time.Since(recStart)
	en.stats.RecoveryTime += ev.Duration
	en.recoveryFrontier = failedAt + 1
	en.openRecovery = len(en.stats.RecoveryEvents)
	en.stats.RecoveryEvents = append(en.stats.RecoveryEvents, ev)
	return true, nil
}

// chargeReexecution charges a superstep below the recovery frontier —
// re-execution after a checkpoint restart — to the recovery that
// rewound the job, so RecoveryTime reflects the real cost of restarting
// (restore plus recompute), comparable with confined replay's.
func (en *engine) chargeReexecution(st *step) {
	if en.recoveryFrontier == 0 {
		return
	}
	if en.superstep < en.recoveryFrontier {
		d := time.Since(st.start)
		en.stats.RecoveryTime += d
		if en.openRecovery >= 0 {
			ev := &en.stats.RecoveryEvents[en.openRecovery]
			ev.Duration += d
			ev.SuperstepsReplayed++
		}
	}
	if en.superstep+1 >= en.recoveryFrontier {
		en.recoveryFrontier = 0
		en.openRecovery = -1
	}
}

// advance ends the superstep: what was sent becomes what is delivered,
// the drained store takes the next sends, and the superstep number
// moves on. It reports convergence — no vertex awake in any partition
// and no inbox with mail. The awake counts are partActive, not the
// workers' own, so a vertex created at this barrier keeps the job
// running until it has computed.
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

// workerCtx returns worker w's Context reset for this superstep. The
// context, its aggregation map and its lane buffers are built once and
// reused:
// everything a superstep hands the barrier (aggregator partials,
// mutation requests) is consumed before the next one starts.
func (en *engine) workerCtx(w int, nv, ne int64) *workerCtx {
	ctx := en.wctx[w]
	if ctx == nil {
		ctx = &workerCtx{en: en, worker: w, flushBatch: en.flushBatch, aggPartial: map[string]Value{}}
		ctx.lane = make([]*msgBatch, len(en.parts))
		ctx.scalar = en.next.scalar
		if en.cfg.Combiner != nil {
			ctx.laneIdx = make([][]uint64, len(en.parts))
			ctx.laneGen = make([]uint32, len(en.parts))
			for p := range ctx.laneGen {
				ctx.laneGen[p] = 1 // 0 is the stamp of a never-written cell
			}
		}
		en.wctx[w] = ctx
	}
	ctx.superstep, ctx.numVertices, ctx.numEdges = en.superstep, nv, ne
	ctx.sent = 0
	clear(ctx.aggPartial)
	ctx.removals, ctx.additions = ctx.removals[:0], ctx.additions[:0]
	return ctx
}

func (en *engine) runWorker(w int, nv, ne int64) (workerResult, error) {
	var res workerResult
	t0 := time.Now()
	capReporter, _ := en.job.comp.(CaptureTimeReporter)
	var capBefore int64
	if capReporter != nil {
		capBefore = capReporter.CaptureNanos(w)
	}
	ctx := en.workerCtx(w, nv, ne)
	if err := en.computeFrontier(ctx, en.parts[w], en.cur, &res); err != nil {
		return res, err
	}
	ctx.flushAll()
	res.sent = ctx.sent
	res.aggPartial = ctx.aggPartial
	res.removals = ctx.removals
	res.additions = ctx.additions
	res.computeNanos = time.Since(t0).Nanoseconds()
	if capReporter != nil {
		res.captureNanos = capReporter.CaptureNanos(w) - capBefore
	}
	return res, nil
}

// computeFrontier runs one superstep of vertex computes over part: the
// vertices that are awake or have mail in inbox's shard, found by
// walking the set bits of awake|pending a word at a time. Bits come out
// in ascending slot order, so the visit order is the one a scan of
// every slot would produce, whatever share of the partition is live.
// Live supersteps and confined replay both run through here.
func (en *engine) computeFrontier(ctx *workerCtx, part *partition, inbox *messageStore, res *workerResult) error {
	sh := &inbox.shards[part.idx]
	inbox.ensure(sh, len(part.slots))
	for wi := range part.awake {
		word := part.awake[wi] | sh.pending[wi]
		if word == 0 {
			continue
		}
		// Poll for cancellation once per live word — at most 64 computes
		// apart — so a Job.Cancel lands mid-superstep; the coordinator
		// still drives every worker to the barrier, so the shutdown stays
		// barrier-consistent.
		if err := en.ctx.Err(); err != nil {
			return fmt.Errorf("pregel: worker %d canceled in superstep %d: %w", ctx.worker, ctx.superstep, err)
		}
		for ; word != 0; word &= word - 1 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			v := part.slots[slot]
			var msgs []Value
			if sh.pending.test(slot) {
				msgs = inbox.takeCell(sh, slot)
				v.halted = false
			}
			res.vertices++
			res.received += int64(len(msgs))
			if err := en.safeCompute(ctx, v, msgs); err != nil {
				return err
			}
			if v.halted {
				part.awake.clear(slot)
			} else {
				part.awake.set(slot)
				res.active++
			}
		}
	}
	return nil
}

// foldTelemetry folds the per-worker collectors into the superstep's
// stats at the barrier: the coordinator is the only goroutine running,
// so no synchronization is needed. Barrier wait per worker is the time
// it idled for the slowest worker: phase wall time minus its own
// compute time.
func (en *engine) foldTelemetry(ss *SuperstepStats, results []workerResult, wall time.Duration) {
	n := len(results)
	ss.Workers = make([]WorkerStepStats, n)
	ss.ComputeTime = wall
	var maxCompute, sumCompute int64
	var maxSent, sumSent int64
	for w := range results {
		r := &results[w]
		ss.Workers[w] = WorkerStepStats{
			Worker:            w,
			VerticesProcessed: r.vertices,
			MessagesSent:      r.sent,
			MessagesReceived:  r.received,
			ComputeTime:       time.Duration(r.computeNanos),
			CaptureTime:       time.Duration(r.captureNanos),
			Subgraphs:         r.subgraphs,
			Iterations:        r.iterations,
		}
		ss.VerticesProcessed += r.vertices
		ss.MessagesReceived += r.received
		ss.CaptureTime += time.Duration(r.captureNanos)
		ss.SubgraphsComputed += r.subgraphs
		ss.InternalIterations += r.iterations
		if r.computeNanos > maxCompute {
			maxCompute = r.computeNanos
			ss.Straggler = w
		}
		sumCompute += r.computeNanos
		if r.sent > maxSent {
			maxSent = r.sent
		}
		sumSent += r.sent
	}
	for w := range ss.Workers {
		if bw := wall - ss.Workers[w].ComputeTime; bw > 0 {
			ss.Workers[w].BarrierWait = bw
			ss.BarrierWait += bw
		}
	}
	if sumCompute > 0 {
		ss.ComputeSkew = float64(maxCompute) * float64(n) / float64(sumCompute)
	}
	if sumSent > 0 {
		ss.MessageSkew = float64(maxSent) * float64(n) / float64(sumSent)
	}
}

// anomalySample projects one superstep's folded telemetry into the
// anomaly package's input form, adding the cumulative resilience
// counters the fault-spike and recovery-storm detectors difference
// across their window. Runs on the coordinator at the barrier.
func (en *engine) anomalySample(ss *SuperstepStats) anomaly.Sample {
	s := anomaly.Sample{
		Superstep:   ss.Superstep,
		ComputeSkew: ss.ComputeSkew,
		MessageSkew: ss.MessageSkew,
		Straggler:   ss.Straggler,
		Sent:        ss.MessagesSent,
		Received:    ss.MessagesReceived,
		Combined:    ss.MessagesCombined,
		Traffic:     ss.Traffic,
		Recoveries:  en.stats.Recoveries,
	}
	corrupt := en.stats.Faults.CorruptCheckpoints + en.stats.Faults.CorruptLogSegments +
		en.stats.Faults.DroppedRecords
	if p, ok := en.cfg.CheckpointFS.(FaultStatsProvider); ok {
		// The checkpoint FS counters are folded into stats only at job
		// end; sample them live so spikes are visible mid-run.
		fs := p.FaultStats()
		corrupt += fs.CorruptCheckpoints + fs.CorruptLogSegments + fs.DroppedRecords
	}
	s.CorruptArtifacts = corrupt
	if len(ss.Workers) > 0 {
		s.Workers = make([]anomaly.WorkerSample, len(ss.Workers))
		for i, w := range ss.Workers {
			s.Workers[i] = anomaly.WorkerSample{
				Worker:       w.Worker,
				ComputeNanos: w.ComputeTime.Nanoseconds(),
				Sent:         w.MessagesSent,
			}
		}
	}
	return s
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

// integrateMissing merges each lane-matrix column into its shard and
// resolves the orphans — messages addressed to
// vertices that do not exist — at the barrier (Giraph's default vertex
// resolver): with CreateMissingVertices the vertex is created so it
// computes next superstep; otherwise the messages are discarded and
// counted as dropped. Each partition is handled by its own goroutine —
// the post-barrier single reader the lane design relies on; the
// coordinator then mirrors the created vertices into the input graph
// so callers observe them after the run. A user combiner that panics
// while messages meet here fails the job like a panicking Compute does.
func (en *engine) integrateMissing() (int64, error) {
	dropped := make([]int64, len(en.parts))
	created := make([][]*Vertex, len(en.parts))
	errs := make([]error, len(en.parts))
	var wg sync.WaitGroup
	for w := range en.parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = &ComputeError{
						VertexID:  en.next.shards[w].merging,
						Superstep: en.superstep,
						Worker:    w,
						Panic:     p,
						Stack:     string(debug.Stack()),
					}
				}
			}()
			en.next.mergeLane(en.parts[w])
			created[w], dropped[w] = en.resolveOrphans(en.next, en.parts[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	var total int64
	for w, vs := range created {
		en.partActive[w] += int64(len(vs)) // resolver-created vertices start active
		for _, v := range vs {
			en.job.graph.vertices[v.id] = v
		}
		total += dropped[w]
	}
	return total, nil
}

// resolveOrphans empties the orphans of part's shard in ascending ID
// order: each vertex is created at the end of the slot array and given
// its mail (CreateMissingVertices), or the messages are discarded.
// Orphans are filed by the merge that runs just before, after the
// barrier's mutations, so none of them has gained a slot since. Returns
// the created vertices and the number of discarded entries.
func (en *engine) resolveOrphans(store *messageStore, part *partition) (created []*Vertex, dropped int64) {
	sh := &store.shards[part.idx]
	for _, id := range sh.orphanIDs() {
		msgs := sh.orphans[id]
		if !en.cfg.CreateMissingVertices {
			dropped += int64(len(msgs))
			continue
		}
		var val Value
		if en.cfg.DefaultVertexValue != nil {
			val = en.cfg.DefaultVertexValue()
		}
		v := &Vertex{id: id, value: val}
		slot := part.add(v)
		created = append(created, v)
		store.ensure(sh, len(part.slots))
		for _, m := range msgs {
			store.put(sh, slot, id, m)
		}
	}
	clear(sh.orphans)
	return created, dropped
}

// compact rebuilds a partition's slot array and carries the pending
// next-superstep inbox along.
func (en *engine) compact(p *partition) {
	perm := p.rebuild()
	en.next.remap(p.idx, perm, len(p.slots))
}

// applyMutations resolves queued vertex removals and additions on the
// coordinator goroutine, in sorted ID order for determinism. A vertex
// both removed and added in the same superstep ends up added.
func (en *engine) applyMutations(results []workerResult) {
	var removals []VertexID
	var additions []vertexAddition
	for w := range results {
		removals = append(removals, results[w].removals...)
		additions = append(additions, results[w].additions...)
	}
	if len(removals) > 0 {
		sort.Slice(removals, func(i, j int) bool { return removals[i] < removals[j] })
		for _, id := range removals {
			p := en.parts[en.partitionFor(id)]
			if slot, ok := p.index.lookup(id); ok {
				if !p.slots[slot].halted {
					en.partActive[p.idx]--
				}
				// Removed vertices leave the computation but stay
				// reachable through the input graph: their final state
				// is often the algorithm's output (matching partners
				// in MWM). The lanes are still unmerged, so the slot's
				// next-superstep cell is empty.
				p.remove(slot)
			}
		}
	}
	if len(additions) > 0 {
		sort.Slice(additions, func(i, j int) bool { return additions[i].id < additions[j].id })
		var dirty []*partition
		for _, add := range additions {
			p := en.parts[en.partitionFor(add.id)]
			if p.vertex(add.id) != nil {
				continue
			}
			val := add.value
			if val == nil && en.cfg.DefaultVertexValue != nil {
				val = en.cfg.DefaultVertexValue()
			}
			v := &Vertex{id: add.id, value: val}
			p.add(v)
			en.partActive[p.idx]++ // new vertices start active
			if p.removed > 0 {
				// A vertex appended behind tombstones would make the
				// iteration order depend on removal history; rebuild
				// below restores ascending-ID order.
				dirty = append(dirty, p)
			}
			en.job.graph.vertices[add.id] = v
		}
		for _, p := range dirty {
			if p.removed > 0 {
				en.compact(p)
			}
		}
	}
	if len(removals) > 0 {
		en.edgeCutDirty = true
	}
	for _, p := range en.parts {
		if p.edgeDelta != 0 {
			en.edgeCutDirty = true
		}
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
