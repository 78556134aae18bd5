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
// superstep). repro.Replay and Graft's recording re-run each execute a
// Compute a second time and rely on this (DESIGN.md §9).
//
// Messages are valid only until Compute returns: the engine reuses the
// slice and the Values in it (vertex mode delivers a message combined
// by a standard combiner in one box per worker). A Compute that keeps a
// message past its return, as its value or anywhere else, keeps
// CloneValue of it.
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
	NumWorkers  int   `json:"num_workers"`
	NumVertices int64 `json:"num_vertices"`
	NumEdges    int64 `json:"num_edges"`
	// Stats is the job's Stats, which the engine fills as the job runs.
	// Its PerSuperstep is the job's one record of its supersteps: a
	// listener may keep the slice it reads in a callback and read it
	// from any goroutine, since the engine only appends past it and a
	// checkpoint restart cuts it to a slice with no spare capacity.
	Stats *Stats `json:"-"`
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

// Counters are a job's additive numbers: each worker records its own
// row without synchronization, the coordinator sums the rows into the
// superstep's at the barrier, and Totals sums the supersteps. A field
// added here is carried, folded, served and persisted at all three
// levels; internal/metrics' Table row names and prints it. The JSON
// tags are the per-superstep schema, which per-worker rows and job
// totals share.
type Counters struct {
	// VerticesProcessed counts Compute invocations.
	VerticesProcessed int64 `json:"vertices"`
	// MessagesSent counts messages sent, before combining.
	MessagesSent int64 `json:"sent"`
	// MessagesReceived counts messages delivered to vertices (sent
	// during the previous superstep, after combining).
	MessagesReceived int64 `json:"received"`
	// MessagesCombined counts messages merged away by the combiner
	// among those sent. Set at the barrier; zero in a worker row.
	MessagesCombined int64 `json:"combined"`
	// LocalMessages counts the messages whose sender and receiver
	// partitions coincide: the diagonal of the traffic matrix. Set at
	// the barrier; zero in a worker row.
	LocalMessages int64 `json:"local,omitempty"`
	// ComputeTime is a worker's time from fan-out to its barrier
	// arrival; a superstep's is the wall time of its worker phase (the
	// slowest worker's), set at the barrier.
	ComputeTime time.Duration `json:"compute_ns"`
	// BarrierWait is the time a worker idled for the slowest one: the
	// phase wall time minus its own compute time. Summed over workers
	// it is the capacity lost to stragglers.
	BarrierWait time.Duration `json:"barrier_ns"`
	// CaptureTime estimates, from sampled records, the time spent
	// building Graft's capture records: snapshotting and writing the
	// contexts of the captured vertices, and re-running the ones a
	// constraint or an exception picked after they computed. A worker
	// row's is at most its ComputeTime, which also holds the constraint
	// checks on every other vertex. Zero for undebugged runs.
	CaptureTime time.Duration `json:"capture_ns"`
	// FlushTime is the wall time the coordinator spent in the
	// listener's BarrierFlush: appending each lane's last records,
	// sealing its open segment and committing its index part. Set at
	// the barrier; zero for listeners without one and in a worker row.
	FlushTime time.Duration `json:"flush_ns,omitempty"`
	// SubgraphsComputed counts ComputeSubgraph invocations (zero in
	// vertex mode).
	SubgraphsComputed int64 `json:"subgraphs,omitempty"`
	// InternalIterations counts the internal sequential iterations
	// subgraph computations reported via SubgraphContext.AddIterations —
	// the work that vertex mode would have paid one superstep each for.
	InternalIterations int64 `json:"internal_iters,omitempty"`
	// MessagesDropped counts messages to nonexistent vertices, dropped
	// at the barrier (once per ID under a combiner); zero in a worker row.
	MessagesDropped int64 `json:"dropped,omitempty"`
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.VerticesProcessed += o.VerticesProcessed
	c.MessagesSent += o.MessagesSent
	c.MessagesReceived += o.MessagesReceived
	c.MessagesCombined += o.MessagesCombined
	c.LocalMessages += o.LocalMessages
	c.ComputeTime += o.ComputeTime
	c.BarrierWait += o.BarrierWait
	c.CaptureTime += o.CaptureTime
	c.FlushTime += o.FlushTime
	c.SubgraphsComputed += o.SubgraphsComputed
	c.InternalIterations += o.InternalIterations
	c.MessagesDropped += o.MessagesDropped
}

// LocalMessageRatio is the fraction of the messages whose sender and
// receiver lived on the same worker — the placement-quality number the
// partitioner exists to push up.
func (c Counters) LocalMessageRatio() float64 { return ratio(c.LocalMessages, c.MessagesSent) }

// CaptureOverhead returns the fraction of compute wall time spent
// inside trace capture — the live equivalent of the paper's Figure 8
// overhead measurement.
func (c Counters) CaptureOverhead() float64 {
	return ratio(c.CaptureTime.Nanoseconds(), c.ComputeTime.Nanoseconds())
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// SuperstepStats summarizes one finished superstep: the BSP accounting
// (active vertices, messages), the counters folded from the workers at
// the barrier, and the straggler/skew indicators derived from them.
type SuperstepStats struct {
	Superstep   int   `json:"superstep"`
	ActiveAtEnd int64 `json:"active"`
	Counters
	// ComputeSkew is max/mean worker compute time (1.0 = perfectly
	// balanced; values well above 1 indicate a straggler).
	ComputeSkew float64 `json:"compute_skew"`
	// MessageSkew is max/mean messages sent per worker.
	MessageSkew float64 `json:"message_skew"`
	// Straggler is the worker with the largest compute time this
	// superstep, or -1 when no worker ran.
	Straggler int `json:"straggler"`
	// CaptureQueueDepth is always 0: capture records are written by the
	// goroutine that captures them, so nothing is queued at a barrier.
	// bench/traced.go still reads it; the next change to bench/ deletes
	// it.
	CaptureQueueDepth int `json:"capture_queue,omitempty"`
	// Workers holds the per-worker breakdown, indexed by worker ID.
	Workers []WorkerStepStats `json:"workers,omitempty"`
	// Traffic is the numWorkers×numWorkers message-flow matrix of this
	// superstep: Traffic[s][d] counts the messages partition s sent to
	// partition d (pre-combine, so the matrix sums to MessagesSent). It
	// is snapshotted from the lane matrix at the barrier, before the
	// lanes merge into the shards.
	Traffic [][]int64 `json:"traffic,omitempty"`
	// Anomalies holds the events the anomaly detectors emitted at this
	// superstep's barrier.
	Anomalies []anomaly.Event `json:"anomalies,omitempty"`
}

// Totals is the job-level fold of SuperstepStats: what Stats' derived
// methods return and what internal/metrics serves, persists and
// describes.
type Totals struct {
	Counters
	// MaxComputeSkew is the worst per-superstep max/mean compute ratio.
	MaxComputeSkew float64 `json:"max_compute_skew"`
	// MaxMessageSkew is the worst per-superstep message imbalance.
	MaxMessageSkew float64 `json:"max_message_skew"`
}

// Add folds one superstep into the rollup; Fold is its one caller.
func (t *Totals) Add(ss SuperstepStats) {
	t.Counters.Add(ss.Counters)
	t.MaxComputeSkew = max(t.MaxComputeSkew, ss.ComputeSkew)
	t.MaxMessageSkew = max(t.MaxMessageSkew, ss.MessageSkew)
}

// Fold is the only job-level sum of superstep rows: Stats.Totals,
// Stats.TotalMessages, the metrics registry and a read-back job.metrics
// all call it.
func Fold(rows []SuperstepStats) Totals {
	var t Totals
	for _, ss := range rows {
		t.Add(ss)
	}
	return t
}

// WorkerStepStats is the telemetry of one worker during one superstep,
// recorded by the worker itself without synchronization and folded by
// the coordinator at the barrier.
type WorkerStepStats struct {
	Worker int `json:"worker"`
	Counters
}

// BarrierFlusher is implemented by listeners that hold trace records
// in open segments between barriers (internal/core's Graft session). The engine
// calls BarrierFlush on the coordinator goroutine at every superstep
// barrier, after the workers have joined and before SuperstepFinished
// fires: when it returns, every record captured up to this barrier is
// durable, which is what lets crash recovery replay deterministically.
// A returned error aborts the job.
type BarrierFlusher interface {
	BarrierFlush(superstep int) error
}

// CaptureTimeReporter is implemented by instrumented computations
// (internal/core) that account, per worker, the time spent building
// capture records (see SuperstepStats.CaptureTime). The engine samples
// it around each worker's compute loop to attribute capture overhead in
// SuperstepStats; each worker only reads its own slot, so
// implementations need no locking beyond per-worker storage.
type CaptureTimeReporter interface {
	// CaptureNanos returns the estimated cumulative nanoseconds worker
	// w spent building capture records since the job started.
	CaptureNanos(w int) int64
}
