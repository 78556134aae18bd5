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
	// SubgraphComputation is the partition-level program of subgraph
	// mode: a sequential algorithm over one connected component of a
	// partition per superstep.
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
	// FileSystem is the storage abstraction traces live in.
	FileSystem = dfs.FileSystem
	// Cluster simulates an HDFS-like replicated store: block
	// replication, checksummed reads that fall through to a live
	// replica, and node kill/revive.
	Cluster = dfs.Cluster
	// ClusterStats snapshots a Cluster's data-path counters (bytes
	// moved, quarantined replicas, write retries).
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
	// PartitionerMode selects the vertex placement, fixed at load
	// (EngineConfig.Partitioner): PartitionHash or PartitionLocality.
	PartitionerMode = pregel.PartitionerMode
	// RecoveryEvent is the per-recovery breakdown in
	// Stats.RecoveryEvents: failure point, checkpoint, re-executed
	// supersteps and cost.
	RecoveryEvent = pregel.RecoveryEvent
	// FaultPlan configures deterministic fault injection (see
	// internal/faults).
	FaultPlan = faults.Plan
	// FaultFS injects seeded faults into a wrapped file system.
	FaultFS = faults.FaultFS
	// RetryFS absorbs transient storage failures with capped
	// exponential backoff.
	RetryFS = faults.RetryFS
)

// NewDetachedSubgraph builds a free-standing subgraph from member
// vertices and their incoming messages — what generated subgraph
// reproduction tests use to rebuild a captured component.
var NewDetachedSubgraph = pregel.NewDetachedSubgraph

// Placement modes for EngineConfig.Partitioner.
const (
	// PartitionHash is Fibonacci hashing, the default: placement is a
	// pure function of the vertex ID, byte-compatible with runs from
	// before the placement subsystem existed.
	PartitionHash = pregel.PartitionHash
	// PartitionLocality is the streaming locality-aware placer: each
	// vertex goes to the worker already holding the most of its
	// neighbors, capacity-penalized so load stays balanced. Where the
	// graph has locality it cuts cross-worker messages and, in subgraph
	// mode, grows components for a fuller superstep collapse; on a graph
	// without it (a regular bipartite circulant) it changes neither.
	// Under order-insensitive combining (min, max, integer sums),
	// results and trace digests are identical to PartitionHash; a
	// floating-point sum agrees only to rounding.
	PartitionLocality = pregel.PartitionLocality
)

// FailAt builds an EngineConfig.FailureAt hook that crashes the job
// once, at the barrier after the given superstep; the job restarts
// from its newest checkpoint (see internal/faults).
var FailAt = faults.FailAt

// TraceDigest computes a canonical SHA-256 of a trace's captured
// computation, invariant to vertex placement and inbox arrival order;
// two runs of the same deterministic job digest identically even when
// partitioned differently (e.g. hash vs locality placement), as long as
// its combining is order-insensitive (min, max, integer sums). A
// floating-point sum rounds in arrival order and agrees only to
// rounding.
var TraceDigest = trace.Digest

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
func NewStore(fs dfs.FileSystem, root string) *Store { return trace.NewStore(fs, root) }

// OpenTrace opens a job's trace lazily: lookups go through the
// segment index and read only the segments they touch.
func OpenTrace(store *Store, jobID string) (*TraceReader, error) {
	return store.OpenReader(jobID)
}

// NewFaultFS wraps fs with a deterministic, seed-driven fault injector.
func NewFaultFS(fs dfs.FileSystem, plan FaultPlan) *FaultFS { return faults.NewFaultFS(fs, plan) }

// NewRetryFS wraps fs with bounded exponential-backoff retries.
func NewRetryFS(fs dfs.FileSystem, seed int64) *RetryFS { return faults.NewRetryFS(fs, seed) }

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
	// Subgraph is the subgraph-centric program. Setting it selects
	// subgraph mode: it runs once per active connected component of a
	// partition per superstep, collapsing traversal workloads to
	// O(partition diameter) supersteps, and the Computation argument is
	// ignored. RunAlgorithm does not set it; pass the algorithm's port
	// (Algorithm.Subgraph) to run a packaged algorithm in subgraph mode.
	Subgraph SubgraphComputation
	// Debug, when non-nil, attaches Graft with this DebugConfig.
	Debug *DebugConfig
	// Store receives trace files; required when Debug is set.
	Store *Store
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

// Run executes comp over g, attaching Graft when opts.Debug is set,
// and waits for it. The engine mutates g in place; clone the graph to
// reuse it. Run is a one-job Session: the job runs on the session's
// goroutine with its own metrics registry, and a debugged job leaves a
// job.metrics beside its trace, as every Session job does. A panic in
// a callback the coordinator runs (a listener, an aggregator merge)
// fails the job with a *core.PanicError instead of crashing the
// caller. Long-lived callers that multiplex jobs (or need
// cancellation) should use NewSession and Session.Submit, whose Job
// handles add Wait/Cancel/State and the live registry.
//
// When the computation itself fails (an exception scenario), Run
// returns both the error and a RunResult: the trace — including the
// captured failing context — is still written, which is the point.
func Run(g *Graph, comp Computation, opts RunOptions) (*RunResult, error) {
	s, err := NewSession(SessionConfig{MaxConcurrentJobs: 1})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	j, err := s.Submit(context.Background(), g, comp, opts)
	if err != nil {
		return nil, err
	}
	return j.Wait(context.Background())
}

// RunAlgorithm runs a packaged Algorithm — wiring its master, combiner,
// aggregators and superstep bound into opts — under the same debugging
// setup as Run. Explicit opts.Engine fields win over the algorithm's.
func RunAlgorithm(g *Graph, alg *Algorithm, opts RunOptions) (*RunResult, error) {
	mergeAlgorithm(&opts, alg)
	return Run(g, alg.Compute, opts)
}
