package main

import (
	"fmt"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

const (
	// numWorkers is fixed so message, combine and capture counts repeat
	// exactly from run to run and from machine to machine.
	numWorkers = 2
	traceRoot  = "traces"

	pageRankIterations = 10
	pageRankDamping    = 0.85
	ssspSource         = 0
)

// size is the scale of every workload. "full" is what BENCHMARK.json
// measures; "tiny" is the same pipeline on graphs of at most 2k vertices for the
// smoke test.
type size struct {
	name                      string
	webN, chainN, chainC, bpN int
	// The read-back sequence: scattered (superstep, id) lookups each
	// replayed on a hit, vertex histories, and late-superstep views.
	lookups, histories, stepViews int
	// codegenHits is how many hits the traced pass renders as tests.
	codegenHits int
}

var sizes = map[string]size{
	"full": {name: "full", webN: 200_000, chainN: 50_000, chainC: 500, bpN: 60_000,
		lookups: 4000, histories: 200, stepViews: 10, codegenHits: 50},
	"tiny": {name: "tiny", webN: 2_000, chainN: 2_000, chainC: 20, bpN: 1_000,
		lookups: 400, histories: 20, stepViews: 5, codegenHits: 10},
}

// workload is one cell of the matrix: an input, a job configuration,
// the oracle that checks the job's answer, and the count of work whose
// rate is work_per_s.
type workload struct {
	name string
	// workUnit names what work_per_s counts on this workload.
	workUnit  string
	generate  func(sz size, seed int64) *pregel.Graph
	algorithm func(seed int64) *algorithms.Algorithm
	// debug is nil for an undebugged job.
	debug func() *graft.DebugConfig
	// newFS makes the store a debugged job writes into; one per job.
	newFS func() dfs.FileSystem
	// readback makes the timed operation the read-back of a captured
	// trace instead of the job that captured it.
	readback bool
	check    func(input, result *pregel.Graph, stats *pregel.Stats) error
	// work is the numerator of work_per_s for one timed operation.
	work func(input *pregel.Graph, res *graft.RunResult, sz size) float64
}

func webGraph(sz size, seed int64) *pregel.Graph { return graphgen.WebGraph(sz.webN, 8, seed) }

func pageRank(int64) *algorithms.Algorithm {
	return algorithms.NewPageRank(pageRankIterations, pageRankDamping)
}

func checkPageRankJob(input, result *pregel.Graph, _ *pregel.Stats) error {
	return checkPageRank(input, result, pageRankIterations, pageRankDamping)
}

// edgesTraversed is the number of edges ten PageRank iterations walk.
// It comes from the input, not from an engine counter.
func edgesTraversed(input *pregel.Graph, _ *graft.RunResult, _ size) float64 {
	return float64(pageRankIterations) * float64(input.NumEdges())
}

func bipartite(sz size, _ int64) *pregel.Graph { return graphgen.RegularBipartite(sz.bpN, 3) }

func captureAll() *graft.DebugConfig {
	return &graft.DebugConfig{CaptureAllActive: true, CaptureExceptions: true, MaxCaptures: -1}
}

func checkColoringJob(input, result *pregel.Graph, _ *pregel.Stats) error {
	return checkColoring(input, result)
}

func replicatedCluster() dfs.FileSystem { return graft.NewCluster(4, 2, 0) }

// dcFull is Table 3's DC-full: ten vertices by ID with their
// neighbours, non-negative message and vertex-value constraints, and
// exceptions.
func dcFull() *graft.DebugConfig {
	nonNegative := func(val pregel.Value) bool {
		switch v := val.(type) {
		case *pregel.LongValue:
			return v.Get() >= 0
		case *pregel.DoubleValue:
			return v.Get() >= 0
		}
		return true
	}
	return &graft.DebugConfig{
		CaptureIDs:       []pregel.VertexID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		CaptureNeighbors: true,
		MessageConstraint: func(msg pregel.Value, _, _ pregel.VertexID, _ int) bool {
			return nonNegative(msg)
		},
		VertexValueConstraint: func(val pregel.Value, _ pregel.VertexID, _ int) bool {
			return nonNegative(val)
		},
		CaptureExceptions: true,
	}
}

// workloads is the matrix, in the order the driver runs it. Why each
// one exists is recorded in BENCHMARK.json and README.md.
var workloads = []*workload{
	{
		name: "pr-web", workUnit: "edges",
		generate: webGraph, algorithm: pageRank,
		check: checkPageRankJob, work: edgesTraversed,
	},
	{
		name: "sssp-chain", workUnit: "supersteps",
		generate: func(sz size, seed int64) *pregel.Graph {
			return graphgen.ChainedCommunities(sz.chainN, sz.chainC, 8, seed)
		},
		algorithm: func(int64) *algorithms.Algorithm { return algorithms.NewSSSP(ssspSource) },
		check: func(input, result *pregel.Graph, stats *pregel.Stats) error {
			return checkSSSP(input, result, ssspSource, stats.Supersteps)
		},
		work: func(_ *pregel.Graph, res *graft.RunResult, _ size) float64 {
			return float64(res.Stats.Supersteps)
		},
	},
	{
		name: "pr-web-dcfull", workUnit: "edges",
		generate: webGraph, algorithm: pageRank,
		debug: dcFull, newFS: func() dfs.FileSystem { return graft.NewMemFS() },
		check: checkPageRankJob, work: edgesTraversed,
	},
	{
		name: "gc-bp-capture", workUnit: "captures",
		generate: bipartite, algorithm: algorithms.NewGraphColoring,
		debug: captureAll, newFS: replicatedCluster,
		check: checkColoringJob,
		work: func(_ *pregel.Graph, res *graft.RunResult, _ size) float64 {
			return float64(res.Captures)
		},
	},
	{
		name: "gc-bp-readback", workUnit: "trace-ops",
		generate: bipartite, algorithm: algorithms.NewGraphColoring,
		debug: captureAll, newFS: replicatedCluster,
		readback: true,
		check:    checkColoringJob,
		work: func(_ *pregel.Graph, _ *graft.RunResult, sz size) float64 {
			return float64(sz.lookups + sz.histories + sz.stepViews)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
