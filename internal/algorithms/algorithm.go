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
	// Subgraph, if non-nil, is the algorithm's subgraph-centric port: a
	// job built with it (pregel.NewSubgraphJob, or graft.RunOptions'
	// Subgraph) runs it instead of Compute, over each connected
	// component of a partition per superstep.
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
// defaulting rule under graft.RunAlgorithm.
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
