package harness

import (
	"fmt"
	"io"
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

// Subgraph is `graft-bench -subgraph`.
var Subgraph = NewExperiment("subgraph",
	"Compute mode: vertex-centric vs subgraph-centric on traversal workloads",
	func(p Params) ([]SubgraphBench, error) {
		return RunSubgraphBench(SubgraphWorkloads(p.Scale, p.Seed, p.Workers), p.Options)
	},
	PrintSubgraphBench, CheckSubgraphBench)

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
func SubgraphWorkloads(scale float64, seed int64, workers int) []Workload {
	n := max(int(30_000_000*scale), 2000)
	bp := graphgen.Dataset{Name: "bp", Build: func() *pregel.Graph { return graphgen.RegularBipartite(n, 8) }}
	return []Workload{
		{Label: "CC-bp", Algorithm: algorithms.NewConnectedComponents, Dataset: bp, Workers: min(workers, 4)},
		{Label: "BFS-bp", Algorithm: func() *algorithms.Algorithm { return algorithms.NewBFS(0) }, Dataset: bp, Workers: workers},
	}
}

// RunSubgraphBench measures the subgraph-centric mode against the
// vertex-centric baseline across the workload grid.
func RunSubgraphBench(workloads []Workload, opts Options) ([]SubgraphBench, error) {
	var out []SubgraphBench
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		row := SubgraphBench{
			Workload:  wl.Label,
			Algorithm: wl.Algorithm().Name,
			Vertices:  base.NumVertices(),
			Workers:   wl.Workers,
			Match:     true,
		}
		var refDigest string // of the first run; every later run must agree
		cell := func(name string, subgraph bool, supersteps *int) Cell {
			w := wl
			w.Subgraph = subgraph
			return Cell{Name: name, Run: func() (time.Duration, error) {
				stats, g, err := w.run(base, pregel.Config{})
				if err != nil {
					return 0, err
				}
				*supersteps = stats.Supersteps
				row.Match = row.Match && sameValues(&refDigest, g)
				if subgraph {
					t := stats.Totals()
					row.SubgraphsComputed, row.InternalIterations = t.SubgraphsComputed, t.InternalIterations
				}
				return stats.Runtime, nil
			}}
		}
		sum, err := RunPaired(Pair{
			Name:   "subgraph " + wl.Label,
			A:      cell("vertex", false, &row.VertexSupersteps),
			B:      cell("subgraph", true, &row.SubgraphSupersteps),
			Blocks: opts.Reps, Progress: opts.Progress,
		})
		if err != nil {
			return nil, err
		}
		row.Reps = sum.Blocks
		row.VertexNanos = sum.FastestA.Nanoseconds()
		row.SubgraphNanos = sum.FastestB.Nanoseconds()
		if sum.FastestB > 0 {
			row.Speedup = float64(sum.FastestA) / float64(sum.FastestB)
		}
		if row.VertexSupersteps > 0 {
			row.SuperstepRatio = float64(row.SubgraphSupersteps) / float64(row.VertexSupersteps)
		}
		out = append(out, row)
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
