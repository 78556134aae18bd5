// Package graft is a Go reproduction of Graft, the capture /
// visualize / reproduce debugger for Apache Giraph (Salihoglu, Shin,
// Khanna, Truong, Widom; SIGMOD 2015), together with the Pregel-style
// BSP engine it debugs.
//
// The typical flow mirrors the paper:
//
//  1. Capture — describe the vertices of interest in a DebugConfig and
//     Run the job; Graft writes their full per-superstep contexts to
//     per-worker trace files in a (simulated) distributed file system.
//  2. Visualize — open the trace with OpenTrace (lazy, index-driven)
//     and step through it with the HTTP GUI (internal/gui, served by
//     `graft serve`), or query it programmatically.
//  3. Reproduce — generate a standalone Go test that rebuilds the
//     exact context of one vertex at one superstep and calls the
//     user's Compute, for line-by-line debugging.
//
// Quick start:
//
//	g := graft.NewGraph()
//	// ... add vertices and edges ...
//	fs := graft.NewMemFS()
//	res, err := graft.Run(g, myComputation, graft.RunOptions{
//		JobID:     "run-1",
//		Algorithm: "my-algo",
//		Store:     graft.NewStore(fs, "traces"),
//		Debug:     &graft.DebugConfig{CaptureIDs: []graft.VertexID{42}, CaptureExceptions: true},
//	})
package graft

import (
	"context"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// Re-exported engine types: the vocabulary user computations are
// written in.
type (
	// Graph is an input graph under construction.
	Graph = pregel.Graph
	// Vertex is the unit of computation.
	Vertex = pregel.Vertex
	// Edge is an outgoing edge.
	Edge = pregel.Edge
	// VertexID identifies a vertex.
	VertexID = pregel.VertexID
	// Value is the interface of vertex/edge/message/aggregator values.
	Value = pregel.Value
	// Computation is the vertex program (vertex.compute).
	Computation = pregel.Computation
	// ComputeFunc adapts a function to Computation.
	ComputeFunc = pregel.ComputeFunc
	// Context is the per-superstep vertex environment.
	Context = pregel.Context
	// ComputeMode selects the unit of computation the engine dispatches
	// per superstep (EngineConfig.ComputeMode): ModeVertex or
	// ModeSubgraph.
	ComputeMode = pregel.ComputeMode
	// SubgraphComputation is the partition-level program of
	// ModeSubgraph: a sequential algorithm over one connected component
	// of a partition per superstep.
	SubgraphComputation = pregel.SubgraphComputation
	// SubgraphFunc adapts a function to SubgraphComputation.
	SubgraphFunc = pregel.SubgraphFunc
	// SubgraphContext is the subgraph program's per-superstep
	// environment, mirroring Context's send/aggregate/halt surface.
	SubgraphContext = pregel.SubgraphContext
	// Subgraph is one connected component of a partition: the unit
	// ComputeSubgraph runs over.
	Subgraph = pregel.Subgraph
	// MasterComputation is the master program (master.compute).
	MasterComputation = pregel.MasterComputation
	// MasterContext is the master's environment.
	MasterContext = pregel.MasterContext
	// EngineConfig configures the BSP engine.
	EngineConfig = pregel.Config
	// Stats summarizes a finished job.
	Stats = pregel.Stats
	// DebugConfig selects which vertices Graft captures.
	DebugConfig = core.DebugConfig
	// Store lays trace files out in a file system.
	Store = trace.Store
	// TraceView is the read API of a trace, implemented by TraceReader:
	// everything the GUI and the Context Reproducer need from one.
	TraceView = trace.View
	// TraceReader is the lazy, index-driven trace reader: it seeks
	// through the segment index and reads only the segments a lookup
	// touches.
	TraceReader = trace.Reader
	// TraceSink is the write side of the redesigned trace API: one
	// RecordSink per worker plus one for the master, flushed at
	// superstep barriers.
	TraceSink = trace.Sink
	// RecordSink accepts capture records for one lane (worker or
	// master).
	RecordSink = trace.RecordSink
	// TraceOption configures a TraceSink (segment size, backpressure,
	// queue capacity, synchronous mode).
	TraceOption = trace.Option
	// BackpressurePolicy selects what a full capture queue does:
	// Block (lossless) or Drop (non-blocking, counted).
	BackpressurePolicy = trace.BackpressurePolicy
	// FileSystem is the storage abstraction traces live in.
	FileSystem = dfs.FileSystem
	// Cluster simulates an HDFS-like replicated store: parallel
	// pipelined block replication, streaming checksummed reads with
	// read-ahead, node kill/revive, and damage-proportional healing.
	Cluster = dfs.Cluster
	// ClusterStats snapshots a Cluster's data-path counters (bytes
	// moved, read-ahead hits, quarantined replicas).
	ClusterStats = dfs.ClusterStats
	// DataNode is one simulated storage node of a Cluster.
	DataNode = dfs.DataNode
	// Algorithm bundles a computation with its master, combiner and
	// aggregators (see internal/algorithms for the library).
	Algorithm = algorithms.Algorithm
	// AggregatorSpec declares one aggregator a computation needs.
	AggregatorSpec = algorithms.AggregatorSpec
	// Aggregator merges per-vertex contributions into a global value.
	Aggregator = pregel.Aggregator
	// Combiner merges messages addressed to the same vertex.
	Combiner = pregel.Combiner
	// FaultStats aggregates storage-resilience counters for one job.
	FaultStats = pregel.FaultStats
	// ImmutableValue marks values that are never mutated after
	// creation, letting SendMessageToAllEdges skip per-edge clones
	// when no combiner is installed.
	ImmutableValue = pregel.ImmutableValue
	// MigrationEvent records one barrier migration by the rebalancer,
	// surfaced in SuperstepStats.Migrations.
	MigrationEvent = pregel.MigrationEvent
	// PartitionerMode selects the initial vertex placement
	// (EngineConfig.Partitioner): PartitionHash or PartitionLocality.
	PartitionerMode = pregel.PartitionerMode
	// RebalanceObjective selects what the adaptive repartitioner
	// optimizes (EngineConfig.RebalanceObjective): ObjectiveSkew or
	// ObjectiveEdgeCut.
	RebalanceObjective = pregel.RebalanceObjective
	// RecoveryMode selects how the engine recovers from worker
	// failures (EngineConfig.Recovery): RecoveryCheckpoint restarts
	// the whole job from the newest checkpoint, RecoveryLog confines
	// the rollback to the failed partitions and replays their inboxes
	// from sender-side outbox logs.
	RecoveryMode = pregel.RecoveryMode
	// RecoveryEvent is the per-recovery breakdown in
	// Stats.RecoveryEvents: mode, partitions, replay window and cost.
	RecoveryEvent = pregel.RecoveryEvent
	// FaultPlan configures deterministic fault injection (see
	// internal/faults).
	FaultPlan = faults.Plan
	// FaultFS injects seeded faults into a wrapped file system.
	FaultFS = faults.FaultFS
	// RetryFS absorbs transient storage failures with capped
	// exponential backoff.
	RetryFS = faults.RetryFS
	// FallbackFS degrades files onto a secondary file system when the
	// primary keeps failing.
	FallbackFS = faults.FallbackFS
)

// Compute modes for EngineConfig.ComputeMode.
const (
	// ModeVertex is the classic vertex-centric model and the default:
	// Compute runs once per active vertex per superstep.
	ModeVertex = pregel.ModeVertex
	// ModeSubgraph is the subgraph-centric model: ComputeSubgraph runs
	// once per active connected component of a partition per superstep,
	// collapsing traversal workloads to O(partition diameter) supersteps.
	ModeSubgraph = pregel.ModeSubgraph
)

// NewDetachedSubgraph builds a free-standing subgraph from member
// vertices and their incoming messages — what generated subgraph
// reproduction tests use to rebuild a captured component.
var NewDetachedSubgraph = pregel.NewDetachedSubgraph

// Recovery modes for EngineConfig.Recovery.
const (
	// RecoveryCheckpoint rolls the whole job back to the newest intact
	// checkpoint on any failure — the classic Pregel strategy and the
	// default.
	RecoveryCheckpoint = pregel.RecoveryCheckpoint
	// RecoveryLog is log-based confined recovery: only failed
	// partitions roll back and recompute, fed by the sender-side
	// outbox logs, while survivors stay live. Requires
	// EngineConfig.MsgLogFS; degrades to a checkpoint restart when the
	// logs cannot drive a replay.
	RecoveryLog = pregel.RecoveryLog
)

// Placement modes for EngineConfig.Partitioner.
const (
	// PartitionHash is Fibonacci hashing, the default: placement is a
	// pure function of the vertex ID, byte-compatible with runs from
	// before the placement subsystem existed.
	PartitionHash = pregel.PartitionHash
	// PartitionLocality is the streaming locality-aware placer: each
	// vertex goes to the worker already holding the most of its
	// neighbors, capacity-penalized so load stays balanced. Fewer
	// cross-worker messages on every workload, larger components —
	// hence fuller superstep collapse — in ModeSubgraph. Results and
	// trace digests are identical to PartitionHash.
	PartitionLocality = pregel.PartitionLocality
)

// Rebalance objectives for EngineConfig.RebalanceObjective.
const (
	// ObjectiveSkew migrates hot vertices off straggler workers when
	// compute/message skew crosses EngineConfig.RebalanceSkew (the
	// default objective).
	ObjectiveSkew = pregel.ObjectiveSkew
	// ObjectiveEdgeCut migrates boundary vertices toward their heaviest
	// communication partner when the traffic matrix shows a dominant
	// cross-partition lane, shrinking the edge cut. Requires telemetry.
	ObjectiveEdgeCut = pregel.ObjectiveEdgeCut
)

// FailPartitionAt builds an EngineConfig.PartitionFailureAt hook that
// kills the given partitions once, at the barrier after the given
// superstep (see internal/faults).
var FailPartitionAt = faults.FailPartitionAt

// PickPartition derives a reproducible victim partition in [0, n)
// from a seed, for chaos runs replayable from their seed alone.
var PickPartition = faults.PickPartition

// TraceDigest computes a canonical SHA-256 of a trace's captured
// computation, invariant to vertex placement and inbox arrival order;
// two runs of the same deterministic job digest identically even when
// partitioned differently (e.g. with the skew rebalancer on vs off).
var TraceDigest = trace.Digest

// Backpressure policies for the capture pipeline.
const (
	// Block makes a full capture queue block the compute goroutine
	// until the writer drains: full fidelity, bounded memory.
	Block = trace.Block
	// Drop makes a full capture queue discard the record and count it
	// in DroppedRecords: compute never stalls on trace I/O.
	Drop = trace.Drop
)

// ErrInvalidTraceOption is the sentinel wrapped by trace-pipeline
// option failures (negative queue capacities or segment sizes),
// surfaced through Run/Submit when the sink is created.
var ErrInvalidTraceOption = trace.ErrInvalidOption

// Capture-pipeline options, re-exported so callers configure sinks
// without importing internal/trace.
var (
	// WithSegmentSize sets the byte threshold at which a trace segment
	// is sealed and written out.
	WithSegmentSize = trace.WithSegmentSize
	// WithQueueCapacity sets the per-lane capture queue depth, in
	// records.
	WithQueueCapacity = trace.WithQueueCapacity
	// WithBackpressure selects the full-queue policy (Block or Drop).
	WithBackpressure = trace.WithBackpressure
	// WithSynchronous disables the background writers: records are
	// encoded and written inline, the legacy behavior. Mostly useful
	// for benchmarking the async pipeline against its baseline.
	WithSynchronous = trace.WithSynchronous
)

// Re-exported value constructors, so user computations and generated
// reproduction code need only this package.
var (
	NewLong   = pregel.NewLong
	NewInt    = pregel.NewInt
	NewShort  = pregel.NewShort
	NewDouble = pregel.NewDouble
	NewText   = pregel.NewText
	NewBool   = pregel.NewBool
	Nil       = pregel.Nil
)

// ValueString renders a value for display, with "∅" for nil.
func ValueString(v Value) string { return pregel.ValueString(v) }

// NewGraph returns an empty graph.
func NewGraph() *Graph { return pregel.NewGraph() }

// NewMemFS returns an in-memory file system for traces.
func NewMemFS() *dfs.MemFS { return dfs.NewMemFS() }

// NewLocalFS returns a file system rooted at a local directory.
func NewLocalFS(dir string) (*dfs.LocalFS, error) { return dfs.NewLocalFS(dir) }

// NewCluster returns a simulated distributed file system with numNodes
// datanodes, the given replication factor and block size (0 means the
// default of 64 KiB). See dfs.Cluster for the data-path guarantees.
func NewCluster(numNodes, replication, blockSize int) *Cluster {
	return dfs.NewCluster(numNodes, replication, blockSize)
}

// CorruptReplicas flips one seed-derived bit in one replica of every
// nth block of a cluster — deterministic silent-corruption injection
// for checksum experiments (see internal/faults).
var CorruptReplicas = faults.CorruptReplicas

// NewStore returns a trace store rooted at root within fs.
//
// Migration note: jobs write through Store.NewSink (async, segmented,
// indexed — what Run uses internally) and read through
// Store.OpenReader / OpenTrace, which serve lookups from the segment
// index instead of loading the whole trace. The whole-file job writer
// and the eager in-memory trace load that preceded them are gone, and
// a trace in the whole-file layout is rejected with
// trace.ErrUnsupportedLayout rather than read; Reader.Verify is the
// whole-trace consistency check.
func NewStore(fs dfs.FileSystem, root string) *Store { return trace.NewStore(fs, root) }

// OpenTrace opens a job's trace lazily: lookups go through the
// segment index and read only the segments they touch. The returned
// Reader implements TraceView.
func OpenTrace(store *Store, jobID string) (*TraceReader, error) {
	return store.OpenReader(jobID)
}

// NewFaultFS wraps fs with a deterministic, seed-driven fault injector.
func NewFaultFS(fs dfs.FileSystem, plan FaultPlan) *FaultFS { return faults.NewFaultFS(fs, plan) }

// NewRetryFS wraps fs with bounded exponential-backoff retries.
func NewRetryFS(fs dfs.FileSystem, seed int64) *RetryFS { return faults.NewRetryFS(fs, seed) }

// NewFallbackFS writes through to primary, degrading files onto
// secondary when primary conclusively fails.
func NewFallbackFS(primary, secondary dfs.FileSystem) *FallbackFS {
	return faults.NewFallbackFS(primary, secondary)
}

// RunOptions configures one debugged (or plain) job run.
type RunOptions struct {
	// JobID names the trace directory; required when Debug is set.
	JobID string
	// Algorithm is a human-readable name recorded in the manifest.
	Algorithm string
	// Description optionally records dataset/parameters.
	Description string
	// Seed and Supersteps are recorded in the manifest as the arguments
	// the packaged algorithm was built with, so `graft serve` reproduces
	// and replay-checks the job with the same ones. Metadata only: no
	// code path of the run reads them. Set both or neither: a manifest
	// without Supersteps reads as the defaults (42, 10).
	Seed       int64
	Supersteps int
	// Engine configures the BSP engine (workers, master, combiner...).
	Engine EngineConfig
	// Subgraph is the subgraph-centric program, required when
	// Engine.ComputeMode is ModeSubgraph (RunAlgorithm fills it from
	// the algorithm's port). The Computation argument is ignored in
	// that mode.
	Subgraph SubgraphComputation
	// Debug, when non-nil, attaches Graft with this DebugConfig.
	Debug *DebugConfig
	// Store receives trace files; required when Debug is set.
	Store *Store
	// Trace configures the capture pipeline (segment size,
	// backpressure policy, queue capacity, synchronous mode). The
	// zero value is the async pipeline with blocking backpressure.
	Trace []TraceOption
	// Aggregators to register on the job.
	Aggregators []AggregatorSpec
}

// RunResult reports a finished run.
type RunResult struct {
	Stats *Stats
	// JobID is where traces were written ("" without debugging).
	JobID string
	// Captures is the number of vertex contexts captured.
	Captures int64
	// LimitHit reports whether the MaxCaptures safety net engaged.
	LimitHit bool
}

// Run executes comp over g, attaching Graft when opts.Debug is set.
// The engine mutates g in place; clone the graph to reuse it. Run is a
// compatibility wrapper over a one-job Session: long-lived callers that
// multiplex jobs (or need cancellation) should use NewSession and
// Session.Submit, whose Job handles add Wait/Cancel/State on the same
// execution path.
//
// When the computation itself fails (an exception scenario), Run
// returns both the error and a RunResult: the trace — including the
// captured failing context — is still written, which is the point.
func Run(g *Graph, comp Computation, opts RunOptions) (*RunResult, error) {
	if err := validateRunOptions(&opts); err != nil {
		return nil, err
	}
	return runJob(context.Background(), g, comp, opts, nil)
}

// RunAlgorithm runs a packaged Algorithm — wiring its master, combiner,
// aggregators and superstep bound into opts — under the same debugging
// setup as Run. Explicit opts.Engine fields win over the algorithm's.
func RunAlgorithm(g *Graph, alg *Algorithm, opts RunOptions) (*RunResult, error) {
	mergeAlgorithm(&opts, alg)
	return Run(g, alg.Compute, opts)
}

// RunSubgraph runs a subgraph-centric program over g: Run with
// Engine.ComputeMode forced to ModeSubgraph. Debugging, tracing and
// reproduction work exactly as in vertex mode, at component
// granularity.
func RunSubgraph(g *Graph, scomp SubgraphComputation, opts RunOptions) (*RunResult, error) {
	opts.Engine.ComputeMode = pregel.ModeSubgraph
	opts.Subgraph = scomp
	return Run(g, nil, opts)
}
