// Package algorithms implements the vertex-centric programs used in
// the paper's scenarios and evaluation: graph coloring via maximal
// independent sets (GC, §4.1), random walk simulation (RW, §4.2),
// approximate maximum-weight matching (MWM, §4.3), plus connected
// components (the Figure 5 example), PageRank and single-source
// shortest paths as further library algorithms.
//
// The buggy variants the paper debugs are preserved deliberately:
// BuggyGraphColoring puts adjacent vertices in the same independent
// set, and the 16-bit RandomWalk overflows its counters exactly like
// Java shorts.
//
// All randomized computations derive randomness deterministically from
// (seed, vertex ID, superstep) so that a captured context replays
// identically — the purity requirement pregel.Computation documents.
package algorithms

import (
	"graft/internal/pregel"
)

// AggregatorSpec declares one aggregator an algorithm needs.
type AggregatorSpec struct {
	Name       string
	Agg        pregel.Aggregator
	Persistent bool
}

// Algorithm bundles everything needed to run one vertex-centric
// program: the computation, its optional master and combiner, the
// aggregators to register, and a safety superstep bound.
type Algorithm struct {
	Name    string
	Compute pregel.Computation
	// Subgraph, if non-nil, is the algorithm's subgraph-centric port:
	// selecting pregel.ModeSubgraph runs it instead of Compute, over
	// each connected component of a partition per superstep.
	Subgraph    pregel.SubgraphComputation
	Master      pregel.MasterComputation
	Combiner    pregel.Combiner
	Aggregators []AggregatorSpec
	// MaxSupersteps is the suggested safety bound; 0 means the
	// algorithm always converges and needs none.
	MaxSupersteps int
}

// SupportsSubgraph reports whether the algorithm has a subgraph-mode
// port.
func (a *Algorithm) SupportsSubgraph() bool { return a.Subgraph != nil }

// ApplyDefaults fills the master, combiner and superstep bound of an
// engine config from the algorithm's, leaving what the caller set: the
// one defaulting rule under Configure and graft.RunAlgorithm.
func (a *Algorithm) ApplyDefaults(cfg *pregel.Config) {
	if cfg.Master == nil {
		cfg.Master = a.Master
	}
	if cfg.Combiner == nil {
		cfg.Combiner = a.Combiner
	}
	if cfg.MaxSupersteps == 0 {
		cfg.MaxSupersteps = a.MaxSupersteps
	}
}

// Configure fills an engine config with the algorithm's master and
// combiner and returns a job with its aggregators registered. Fields
// the caller already set (Listener, NumWorkers, checkpointing...) are
// preserved; an explicit MaxSupersteps wins over the suggestion.
func (a *Algorithm) Configure(g *pregel.Graph, cfg pregel.Config) *pregel.Job {
	a.ApplyDefaults(&cfg)
	var job *pregel.Job
	if cfg.ComputeMode == pregel.ModeSubgraph {
		// A nil a.Subgraph is rejected by the engine with a typed
		// ErrInvalidConfig; callers wanting a friendlier message check
		// SupportsSubgraph first.
		job = pregel.NewSubgraphJob(g, a.Subgraph, cfg)
	} else {
		job = pregel.NewJob(g, a.Compute, cfg)
	}
	for _, spec := range a.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	return job
}

// Run executes the algorithm over g with the given base config.
func (a *Algorithm) Run(g *pregel.Graph, cfg pregel.Config) (*pregel.Stats, error) {
	return a.Configure(g, cfg).Run()
}
