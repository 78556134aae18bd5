package pregel

import (
	"time"

	"graft/internal/anomaly"
)

// Computation is the vertex-centric program, Giraph's
// Computation/vertex.compute(). Compute is called once per active
// vertex per superstep. Inside Compute a vertex has access to exactly
// the five pieces of data the Giraph API exposes (paper §2): its ID
// and edges (via v), its incoming messages (msgs), the aggregators and
// the default global data (via ctx).
//
// Compute must be a pure function of that context: implementations
// must not read mutable state shared across vertices (beyond
// aggregators), or context reproduction cannot replay them faithfully
// (the limitation discussed in §7 of the paper). Randomized algorithms
// should derive randomness deterministically from (seed, vertex ID,
// superstep). Confined recovery, repro.Replay and Graft's recording
// re-run each execute a Compute a second time and rely on this
// (DESIGN.md §9).
type Computation interface {
	Compute(ctx Context, v *Vertex, msgs []Value) error
}

// ComputeFunc adapts a function to the Computation interface.
type ComputeFunc func(ctx Context, v *Vertex, msgs []Value) error

// Compute implements Computation.
func (f ComputeFunc) Compute(ctx Context, v *Vertex, msgs []Value) error {
	return f(ctx, v, msgs)
}

// Context is the per-superstep environment passed to Compute. It is
// only valid for the duration of the call.
type Context interface {
	// Superstep returns the current superstep number, starting at 0.
	Superstep() int
	// TotalNumVertices returns the vertex count at the start of the
	// superstep.
	TotalNumVertices() int64
	// TotalNumEdges returns the directed edge count at the start of
	// the superstep.
	TotalNumEdges() int64
	// WorkerID identifies the worker executing this vertex; Graft uses
	// it to route capture records to per-worker trace files.
	WorkerID() int
	// GetAggregated returns the value of a registered aggregator as
	// broadcast at the start of this superstep. The returned Value is
	// shared; callers must not mutate it.
	GetAggregated(name string) Value
	// Aggregate folds val into the named aggregator; the merged result
	// is visible from the next superstep.
	Aggregate(name string, val Value)
	// SendMessage delivers msg to the vertex with the given ID at the
	// next superstep. The engine takes ownership of msg; do not reuse
	// or mutate it after sending.
	SendMessage(to VertexID, msg Value)
	// SendMessageToAllEdges sends a copy of msg along every outgoing
	// edge of v.
	SendMessageToAllEdges(v *Vertex, msg Value)
	// RemoveVertexRequest asks the engine to remove the vertex with
	// the given ID at the end of the superstep.
	RemoveVertexRequest(id VertexID)
	// AddVertexRequest asks the engine to create a vertex at the end
	// of the superstep. If the vertex already exists the request is
	// ignored, matching Giraph's default resolver.
	AddVertexRequest(id VertexID, value Value)
}

// MasterComputation is the optional master program, Giraph/GPS's
// master.compute(). It runs once at the beginning of every superstep,
// before any vertex computes, and typically coordinates algorithm
// phases through aggregators.
type MasterComputation interface {
	Compute(ctx MasterContext) error
}

// MasterComputeFunc adapts a function to MasterComputation.
type MasterComputeFunc func(ctx MasterContext) error

// Compute implements MasterComputation.
func (f MasterComputeFunc) Compute(ctx MasterContext) error { return f(ctx) }

// MasterContext is the environment passed to MasterComputation.
type MasterContext interface {
	// Superstep returns the superstep about to run, starting at 0.
	Superstep() int
	// TotalNumVertices returns the current vertex count.
	TotalNumVertices() int64
	// TotalNumEdges returns the current directed edge count.
	TotalNumEdges() int64
	// GetAggregated returns the aggregator value merged from the
	// previous superstep.
	GetAggregated(name string) Value
	// SetAggregated overwrites the value that will be broadcast to
	// vertices this superstep.
	SetAggregated(name string, val Value)
	// AggregatedNames returns the sorted names of all registered
	// aggregators; Graft's master instrumentation snapshots them.
	AggregatedNames() []string
	// HaltComputation terminates the job before this superstep's
	// vertex computations run.
	HaltComputation()
}

// Aggregator merges per-vertex contributions into a global value,
// Giraph's Aggregator<A>. Implementations must be commutative and
// associative.
type Aggregator interface {
	// CreateInitial returns the identity element.
	CreateInitial() Value
	// Aggregate folds b into a, returning the merged value. It may
	// mutate and return a, but must not retain b.
	Aggregate(a, b Value) Value
}

// Combiner merges messages addressed to the same vertex before
// delivery, Giraph's MessageCombiner. It must be commutative and
// associative, and may mutate and return a.
//
// The standard combiners (MinLongCombiner, MaxLongCombiner,
// SumLongCombiner, SumDoubleCombiner, MinDoubleCombiner) are recognised
// by the engine: on the lane plane their messages travel unboxed, and
// the receiver is handed a freshly boxed LongValue or DoubleValue.
// SendMessage under one of them therefore requires the matching value
// type — *LongValue for the Long combiners, *DoubleValue for the Double
// ones — and anything else fails the sending Compute.
type Combiner interface {
	Combine(to VertexID, a, b Value) Value
}

// CombineFunc adapts a function to Combiner.
type CombineFunc func(to VertexID, a, b Value) Value

// Combine implements Combiner.
func (f CombineFunc) Combine(to VertexID, a, b Value) Value { return f(to, a, b) }

// JobListener observes engine progress. Graft's instrumenter listens
// to flush trace files at superstep boundaries; the GUI's live mode
// and the harness use it for progress accounting. All callbacks run on
// the engine's coordinator goroutine, never concurrently.
type JobListener interface {
	// JobStarted fires once before superstep 0.
	JobStarted(info JobInfo)
	// SuperstepStarted fires after master.compute but before any
	// vertex computes.
	SuperstepStarted(superstep int, info SuperstepInfo)
	// SuperstepFinished fires after the superstep barrier.
	SuperstepFinished(superstep int, stats SuperstepStats)
	// JobFinished fires once, after the final superstep or on error.
	JobFinished(stats *Stats, err error)
}

// JobInfo describes a starting job.
type JobInfo struct {
	NumWorkers  int
	NumVertices int64
	NumEdges    int64
}

// SuperstepInfo is the global data broadcast to vertices for one
// superstep, plus a snapshot of all aggregator values.
type SuperstepInfo struct {
	Superstep   int
	NumVertices int64
	NumEdges    int64
	// Aggregated maps every registered aggregator to the value
	// broadcast this superstep. Values are cloned; listeners own them.
	Aggregated map[string]Value
}

// SuperstepStats summarizes one finished superstep. Beyond the BSP
// accounting (active vertices, messages) it carries the telemetry the
// engine folds from its per-worker collectors at the barrier: wall
// times for the compute phase, barrier idling and trace capture, and
// the straggler/skew indicators derived from them.
type SuperstepStats struct {
	Superstep    int   `json:"superstep"`
	ActiveAtEnd  int64 `json:"active"`
	MessagesSent int64 `json:"sent"`
	// MessagesReceived counts messages delivered to vertices this
	// superstep (sent during the previous one, after combining).
	MessagesReceived int64 `json:"received"`
	// MessagesCombined counts messages merged away by the combiner
	// among those sent this superstep.
	MessagesCombined int64 `json:"combined"`
	// VerticesProcessed counts Compute invocations this superstep.
	VerticesProcessed int64 `json:"vertices"`
	// ComputeTime is the wall time of the worker phase: the time the
	// slowest worker took from fan-out to barrier.
	ComputeTime time.Duration `json:"compute_ns"`
	// BarrierWait is the total idle time across workers: the sum over
	// workers of (slowest worker's compute time - own compute time). It
	// is the capacity lost to stragglers this superstep.
	BarrierWait time.Duration `json:"barrier_ns"`
	// CaptureTime is the total time workers spent building Graft's
	// capture records: snapshotting and writing the contexts of the
	// vertices that are captured, and re-running the ones a constraint or
	// an exception picked after they computed. Evaluating the constraint
	// predicates on every other vertex is part of ComputeTime. Zero for
	// undebugged runs.
	CaptureTime time.Duration `json:"capture_ns"`
	// ComputeSkew is max/mean worker compute time (1.0 = perfectly
	// balanced; values well above 1 indicate a straggler).
	ComputeSkew float64 `json:"compute_skew"`
	// MessageSkew is max/mean messages sent per worker.
	MessageSkew float64 `json:"message_skew"`
	// Straggler is the worker with the largest compute time this
	// superstep, or -1 when no worker ran.
	Straggler int `json:"straggler"`
	// FlushTime is the wall time the coordinator spent in the
	// listener's BarrierFlush — draining and committing the capture
	// pipeline at this barrier. Zero for listeners without one.
	FlushTime time.Duration `json:"flush_ns,omitempty"`
	// CaptureQueueDepth is the number of capture records still queued
	// in the trace pipeline when the barrier was reached, sampled just
	// before the flush: how far writing lagged compute.
	CaptureQueueDepth int `json:"capture_queue,omitempty"`
	// SubgraphsComputed counts ComputeSubgraph invocations this
	// superstep (zero in vertex mode).
	SubgraphsComputed int64 `json:"subgraphs,omitempty"`
	// InternalIterations counts the internal sequential iterations
	// subgraph computations reported via SubgraphContext.AddIterations —
	// the work that vertex mode would have paid one superstep each for.
	InternalIterations int64 `json:"internal_iters,omitempty"`
	// Workers holds the per-worker breakdown, indexed by worker ID.
	Workers []WorkerStepStats `json:"workers,omitempty"`
	// Traffic is the numWorkers×numWorkers message-flow matrix of this
	// superstep: Traffic[s][d] counts the messages partition s sent to
	// partition d (pre-combine, so the matrix sums to MessagesSent). It
	// is snapshotted from the lane matrix at the barrier, before the
	// lanes merge into the shards. Nil when Config.AnomalyWindow is
	// negative.
	Traffic [][]int64 `json:"traffic,omitempty"`
	// LocalMessages counts the messages of this superstep whose sender
	// and receiver partitions coincide: the diagonal of Traffic. Zero
	// whenever Traffic is nil.
	LocalMessages int64 `json:"local,omitempty"`
	// EdgeCut is the number of directed edges crossing partitions after
	// this superstep's barrier (post-migration placement).
	EdgeCut int64 `json:"edge_cut,omitempty"`
	// Anomalies holds the events the anomaly detectors emitted at this
	// superstep's barrier (empty unless detection is enabled).
	Anomalies []anomaly.Event `json:"anomalies,omitempty"`
	// Migrations records the vertex migrations the rebalancer performed
	// at this superstep's barrier (empty unless rebalancing triggered).
	Migrations []MigrationEvent `json:"migrations,omitempty"`
}

// Totals is the job-level fold of SuperstepStats: what Stats' derived
// methods return and what internal/metrics serves, persists and
// describes (its table names each field once; the JSON tags are the
// job.metrics / JSONL / /metrics schema).
type Totals struct {
	// VerticesProcessed counts Compute invocations over the whole job.
	VerticesProcessed int64 `json:"vertices_processed"`
	// MessagesSent counts messages sent (pre-combining).
	MessagesSent int64 `json:"messages_sent"`
	// MessagesReceived counts messages delivered to vertices.
	MessagesReceived int64 `json:"messages_received"`
	// MessagesCombined counts messages merged away by the combiner.
	MessagesCombined int64 `json:"messages_combined"`
	// ComputeNanos sums the worker-phase wall time across supersteps.
	ComputeNanos int64 `json:"compute_ns"`
	// BarrierNanos sums worker idle time lost to stragglers.
	BarrierNanos int64 `json:"barrier_ns"`
	// CaptureNanos sums time spent inside Graft's trace capture.
	CaptureNanos int64 `json:"capture_ns"`
	// FlushNanos sums the coordinator time spent draining the capture
	// pipeline at superstep barriers (zero for undebugged runs and for
	// synchronous sinks, where writes happen inline).
	FlushNanos int64 `json:"flush_ns,omitempty"`
	// MaxCaptureQueueDepth is the deepest the capture pipeline's queues
	// got at any barrier: how far trace writing lagged compute.
	MaxCaptureQueueDepth int `json:"max_capture_queue,omitempty"`
	// MaxComputeSkew is the worst per-superstep max/mean compute ratio.
	MaxComputeSkew float64 `json:"max_compute_skew"`
	// MaxMessageSkew is the worst per-superstep message imbalance.
	MaxMessageSkew float64 `json:"max_message_skew"`
	// SubgraphsComputed counts ComputeSubgraph invocations over the
	// whole job (absent in vertex mode).
	SubgraphsComputed int64 `json:"subgraphs_computed,omitempty"`
	// InternalIterations sums the local sweeps subgraph computations
	// reported via AddIterations — the work the collapsed supersteps
	// moved inside the components (absent in vertex mode).
	InternalIterations int64 `json:"internal_iterations,omitempty"`
	// Rebalances counts barriers at which the skew rebalancer migrated
	// vertices (absent unless adaptive repartitioning is enabled).
	Rebalances int `json:"rebalances,omitempty"`
	// VerticesMigrated counts vertices the rebalancer moved between
	// partitions over the job.
	VerticesMigrated int64 `json:"vertices_migrated,omitempty"`
	// LocalMessages counts messages whose sender and receiver lived on
	// the same worker (absent when the traffic matrix was not captured).
	LocalMessages int64 `json:"local_messages,omitempty"`
}

// Add folds one superstep into the rollup. It is the only place a
// SuperstepStats is accumulated into job-level numbers: Stats.Totals
// runs it over PerSuperstep, the metrics registry at every
// SuperstepFinished.
func (t *Totals) Add(ss SuperstepStats) {
	t.VerticesProcessed += ss.VerticesProcessed
	t.MessagesSent += ss.MessagesSent
	t.MessagesReceived += ss.MessagesReceived
	t.MessagesCombined += ss.MessagesCombined
	t.ComputeNanos += ss.ComputeTime.Nanoseconds()
	t.BarrierNanos += ss.BarrierWait.Nanoseconds()
	t.CaptureNanos += ss.CaptureTime.Nanoseconds()
	t.FlushNanos += ss.FlushTime.Nanoseconds()
	t.SubgraphsComputed += ss.SubgraphsComputed
	t.InternalIterations += ss.InternalIterations
	t.LocalMessages += ss.LocalMessages
	if ss.CaptureQueueDepth > t.MaxCaptureQueueDepth {
		t.MaxCaptureQueueDepth = ss.CaptureQueueDepth
	}
	if ss.ComputeSkew > t.MaxComputeSkew {
		t.MaxComputeSkew = ss.ComputeSkew
	}
	if ss.MessageSkew > t.MaxMessageSkew {
		t.MaxMessageSkew = ss.MessageSkew
	}
	for _, m := range ss.Migrations {
		t.Rebalances++
		t.VerticesMigrated += m.Vertices
	}
}

// LocalMessageRatio is the fraction of the job's messages whose sender
// and receiver lived on the same worker — the placement-quality number
// the partitioner exists to push up. Whether the traffic matrix (and
// with it LocalMessages) is captured is a per-job setting, so the
// denominator is every message sent; the ratio is 0 when it was not.
func (t Totals) LocalMessageRatio() float64 { return ratio(t.LocalMessages, t.MessagesSent) }

// LocalMessageRatio is the same share within one superstep.
func (ss *SuperstepStats) LocalMessageRatio() float64 {
	return ratio(ss.LocalMessages, ss.MessagesSent)
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// CaptureOverhead returns the fraction of worker compute wall time
// spent inside trace capture — the live equivalent of the paper's
// Figure 8 overhead measurement.
func (t Totals) CaptureOverhead() float64 { return ratio(t.CaptureNanos, t.ComputeNanos) }

// MigrationEvent records one rebalancer migration: Vertices vertices
// (carrying Edges out-edges) moved from partition From to partition
// To. Under the skew objective, Skew is the compute/message skew that
// triggered the move; under the edge-cut objective (Objective =
// "edgecut"), Skew is the triggering lane's share of the superstep's
// traffic and Gain is the directed-edge cut removed between the pair.
type MigrationEvent struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Vertices  int64   `json:"vertices"`
	Edges     int64   `json:"edges"`
	Skew      float64 `json:"skew"`
	Objective string  `json:"objective,omitempty"`
	Gain      int64   `json:"gain,omitempty"`
}

// WorkerStepStats is the telemetry of one worker during one superstep,
// recorded by the worker itself without synchronization and folded by
// the coordinator at the barrier.
type WorkerStepStats struct {
	Worker            int           `json:"worker"`
	VerticesProcessed int64         `json:"vertices"`
	MessagesSent      int64         `json:"sent"`
	MessagesReceived  int64         `json:"received"`
	ComputeTime       time.Duration `json:"compute_ns"`
	BarrierWait       time.Duration `json:"barrier_ns"`
	CaptureTime       time.Duration `json:"capture_ns"`
	// Subgraphs and Iterations are the worker's ModeSubgraph telemetry
	// (zero in vertex mode).
	Subgraphs  int64 `json:"subgraphs,omitempty"`
	Iterations int64 `json:"internal_iters,omitempty"`
}

// BarrierFlusher is implemented by listeners that buffer trace
// records asynchronously (internal/core's Graft session). The engine
// calls BarrierFlush on the coordinator goroutine at every superstep
// barrier, after the workers have joined and before SuperstepFinished
// fires: when it returns, every record captured up to this barrier is
// durable, which is what lets crash recovery replay deterministically.
// A returned error aborts the job.
type BarrierFlusher interface {
	BarrierFlush(superstep int) error
}

// CaptureQueueReporter is implemented by listeners whose capture
// pipeline queues records. The engine samples it at the barrier, just
// before BarrierFlush, to expose queue depth in SuperstepStats.
type CaptureQueueReporter interface {
	CaptureQueueDepth() int
}

// CaptureTimeReporter is implemented by instrumented computations
// (internal/core) that account, per worker, the time spent building
// capture records (see SuperstepStats.CaptureTime). The engine samples
// it around each worker's compute loop to attribute capture overhead in
// SuperstepStats; each worker only reads its own slot, so
// implementations need no locking beyond per-worker storage.
type CaptureTimeReporter interface {
	// CaptureNanos returns the cumulative nanoseconds worker w spent
	// building capture records since the job started.
	CaptureNanos(w int) int64
}
