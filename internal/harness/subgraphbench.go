package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// SubgraphBench is one cell of the compute-mode experiment behind
// `graft-bench -subgraph`: the same traversal workload run
// vertex-centric and subgraph-centric. The headline number is the
// superstep collapse — a subgraph computation propagates labels across
// a whole partition component per superstep, so traversal workloads
// shed the one-hop-per-superstep tax — with wall clock as the
// second gate and a final-values digest match as the correctness
// anchor.
type SubgraphBench struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Vertices  int64  `json:"vertices"`
	Workers   int    `json:"workers"`
	Reps      int    `json:"reps"`
	// VertexSupersteps / SubgraphSupersteps are the superstep counts of
	// each mode (identical across reps; the engine is deterministic).
	VertexSupersteps   int `json:"vertex_supersteps"`
	SubgraphSupersteps int `json:"subgraph_supersteps"`
	// SuperstepRatio is subgraph/vertex: the collapse factor.
	SuperstepRatio float64 `json:"superstep_ratio"`
	// VertexNanos / SubgraphNanos are the fastest wall-clock runtimes.
	VertexNanos   int64 `json:"vertex_ns"`
	SubgraphNanos int64 `json:"subgraph_ns"`
	// Speedup is vertex/subgraph wall clock: >1 means subgraph won.
	Speedup float64 `json:"speedup"`
	// SubgraphsComputed / InternalIterations report how the collapsed
	// supersteps were paid for: sequential work inside components.
	SubgraphsComputed  int64 `json:"subgraphs_computed"`
	InternalIterations int64 `json:"internal_iterations"`
	// Match reports whether both modes' final vertex values digested
	// identically.
	Match bool `json:"match"`
}

// SubgraphWorkload is one algorithm/graph point of the compute-mode
// grid.
type SubgraphWorkload struct {
	Label     string
	Algorithm string
	Make      func() *algorithms.Algorithm
	Build     func() *pregel.Graph
	Workers   int
}

// SubgraphWorkloads returns the compute-mode grid. CC-bp is the
// paper's pathological scenario: connected components on a regular
// bipartite circulant whose diameter scales with size, so the
// vertex-centric run pays hundreds of one-hop supersteps while the
// subgraph-centric run needs a handful of boundary exchanges. BFS-bp
// runs the same topology under single-source traversal.
//
// CC-bp pins 4 partitions regardless of the -workers flag: with
// degree 8 and 4 hash partitions every partition keeps a
// supercritical share of its edges, so partition components percolate
// and a whole component's label collapses in one sequential pass —
// the scenario the ≤10% superstep gate is about. BFS-bp keeps the
// caller's worker count: BFS supersteps track partition-boundary
// crossings along shortest paths (which hash partitioning cannot
// shorten much), so its win comes from halving barrier count while
// finer partitions keep the per-superstep internal refinement cheap.
func SubgraphWorkloads(scale float64, seed int64, workers int) []SubgraphWorkload {
	n := int(30_000_000 * scale)
	if n < 2000 {
		n = 2000
	}
	bp := func() *pregel.Graph { return graphgen.RegularBipartite(n, 8) }
	ccWorkers := 4
	if workers < ccWorkers {
		ccWorkers = workers
	}
	return []SubgraphWorkload{
		{Label: "CC-bp", Algorithm: "cc", Make: algorithms.NewConnectedComponents, Build: bp, Workers: ccWorkers},
		{Label: "BFS-bp", Algorithm: "bfs", Make: func() *algorithms.Algorithm { return algorithms.NewBFS(0) }, Build: bp, Workers: workers},
	}
}

// subgraphModeRun executes one repetition in the given compute mode
// and returns the stats and the final-values digest.
func subgraphModeRun(wl SubgraphWorkload, base *pregel.Graph, mode pregel.ComputeMode) (*pregel.Stats, string, error) {
	runtime.GC()
	g := base.Clone()
	cfg := pregel.Config{
		NumWorkers:  wl.Workers,
		ComputeMode: mode,
	}
	stats, err := wl.Make().Configure(g, cfg).Run()
	if err != nil {
		return nil, "", err
	}
	return stats, valuesDigest(g), nil
}

// RunSubgraphBench measures the subgraph-centric mode against the
// vertex-centric baseline across the workload grid, interleaving
// repetitions (vertex/subgraph alternating first) so neither mode
// systematically benefits from a warm heap.
func RunSubgraphBench(workloads []SubgraphWorkload, opts Options) ([]SubgraphBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []SubgraphBench
	for _, wl := range workloads {
		base := wl.Build()
		row := SubgraphBench{
			Workload:  wl.Label,
			Algorithm: wl.Algorithm,
			Vertices:  base.NumVertices(),
			Workers:   wl.Workers,
			Reps:      opts.Reps,
			Match:     true,
		}
		var vertexTimes, subgraphTimes []time.Duration
		var vertexDigest, subgraphDigest string
		for rep := -1; rep < opts.Reps; rep++ {
			var vt, st time.Duration
			runVertex := func() error {
				stats, digest, err := subgraphModeRun(wl, base, pregel.ModeVertex)
				if err != nil {
					return fmt.Errorf("harness: %s vertex: %w", wl.Label, err)
				}
				vt = stats.Runtime
				row.VertexSupersteps = stats.Supersteps
				vertexDigest = digest
				return nil
			}
			runSubgraph := func() error {
				stats, digest, err := subgraphModeRun(wl, base, pregel.ModeSubgraph)
				if err != nil {
					return fmt.Errorf("harness: %s subgraph: %w", wl.Label, err)
				}
				st = stats.Runtime
				row.SubgraphSupersteps = stats.Supersteps
				subgraphDigest = digest
				row.SubgraphsComputed, row.InternalIterations = 0, 0
				for _, ss := range stats.PerSuperstep {
					row.SubgraphsComputed += ss.SubgraphsComputed
					row.InternalIterations += ss.InternalIterations
				}
				return nil
			}
			first, second := runVertex, runSubgraph
			if rep%2 != 0 {
				first, second = runSubgraph, runVertex
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if vertexDigest != subgraphDigest {
				row.Match = false
			}
			if rep < 0 {
				continue // warmup
			}
			vertexTimes = append(vertexTimes, vt)
			subgraphTimes = append(subgraphTimes, st)
		}
		vertexBest, subgraphBest := fastest(vertexTimes), fastest(subgraphTimes)
		row.VertexNanos = vertexBest.Nanoseconds()
		row.SubgraphNanos = subgraphBest.Nanoseconds()
		if subgraphBest > 0 {
			row.Speedup = float64(vertexBest) / float64(subgraphBest)
		}
		if row.VertexSupersteps > 0 {
			row.SuperstepRatio = float64(row.SubgraphSupersteps) / float64(row.VertexSupersteps)
		}
		out = append(out, row)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-8s supersteps %4d -> %-3d (%.1f%%)  wall %8.2fms -> %8.2fms (%.2fx)  match=%v\n",
				wl.Label, row.VertexSupersteps, row.SubgraphSupersteps, row.SuperstepRatio*100,
				float64(vertexBest.Microseconds())/1000, float64(subgraphBest.Microseconds())/1000,
				row.Speedup, row.Match)
		}
	}
	return out, nil
}

// PrintSubgraphBench renders the compute-mode rows as a table.
func PrintSubgraphBench(w io.Writer, rs []SubgraphBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tvertices\tsupersteps v->s\tratio\tvertex\tsubgraph\tspeedup\tsubgraphs\tinternal iters\tmatch")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%d\t%d -> %d\t%.1f%%\t%s\t%s\t%.2fx\t%d\t%d\t%v\n",
			r.Workload, r.Vertices, r.VertexSupersteps, r.SubgraphSupersteps, r.SuperstepRatio*100,
			time.Duration(r.VertexNanos).Round(time.Microsecond),
			time.Duration(r.SubgraphNanos).Round(time.Microsecond),
			r.Speedup, r.SubgraphsComputed, r.InternalIterations, r.Match)
	}
	tw.Flush()
}

// WriteSubgraphBenchJSON writes the rows as indented JSON (the
// BENCH_subgraph.json artifact).
func WriteSubgraphBenchJSON(w io.Writer, rs []SubgraphBench) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CheckSubgraphBench verifies the acceptance claims: both modes land
// on identical final values, subgraph mode finishes in strictly fewer
// supersteps and strictly less wall clock on every BFS/WCC cell, and
// on the CC-bp scenario the collapse reaches at least 10x.
func CheckSubgraphBench(rs []SubgraphBench) []string {
	var problems []string
	for _, r := range rs {
		if !r.Match {
			problems = append(problems, r.Workload+": subgraph-mode final values diverged from vertex mode")
		}
		if r.SubgraphSupersteps >= r.VertexSupersteps {
			problems = append(problems, fmt.Sprintf(
				"%s: subgraph mode took %d supersteps, vertex mode %d — no collapse",
				r.Workload, r.SubgraphSupersteps, r.VertexSupersteps))
		}
		if r.SubgraphNanos >= r.VertexNanos {
			problems = append(problems, fmt.Sprintf(
				"%s: subgraph mode (%v) not faster than vertex mode (%v)",
				r.Workload, time.Duration(r.SubgraphNanos), time.Duration(r.VertexNanos)))
		}
		if r.Workload == "CC-bp" && r.SubgraphSupersteps*10 > r.VertexSupersteps {
			problems = append(problems, fmt.Sprintf(
				"CC-bp: subgraph supersteps %d exceed 10%% of vertex supersteps %d",
				r.SubgraphSupersteps, r.VertexSupersteps))
		}
	}
	return problems
}
