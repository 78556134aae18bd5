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

// PartitionBench is one cell of the placement experiment behind
// `graft-bench -partition`: the same workload run under hash
// partitioning and under the streaming locality placer. The headline
// numbers are communication — cross-worker messages and the final edge
// cut — plus the superstep count for subgraph-mode cells (a placement
// that keeps components together collapses boundary exchanges), with a
// final-values digest match as the correctness anchor: placement must
// never change what the job computes.
type PartitionBench struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	Mode      string `json:"mode"`
	Vertices  int64  `json:"vertices"`
	Edges     int64  `json:"edges"`
	Workers   int    `json:"workers"`
	Reps      int    `json:"reps"`
	// HashRemote / LocalityRemote are cross-worker message totals over
	// the job (identical across reps; the engine is deterministic).
	HashRemote     int64 `json:"hash_remote_messages"`
	LocalityRemote int64 `json:"locality_remote_messages"`
	// RemoteReduction is 1 - locality/hash: the fraction of
	// cross-partition traffic the placer eliminated.
	RemoteReduction float64 `json:"remote_reduction"`
	// HashEdgeCut / LocalityEdgeCut are the final cross-partition
	// directed-edge counts.
	HashEdgeCut     int64 `json:"hash_edge_cut"`
	LocalityEdgeCut int64 `json:"locality_edge_cut"`
	// HashSupersteps / LocalitySupersteps are the superstep counts of
	// each placement (they differ only in subgraph mode, where partition
	// components drive convergence).
	HashSupersteps     int `json:"hash_supersteps"`
	LocalitySupersteps int `json:"locality_supersteps"`
	// HashNanos / LocalityNanos are the fastest wall-clock runtimes.
	HashNanos     int64 `json:"hash_ns"`
	LocalityNanos int64 `json:"locality_ns"`
	// Match reports whether both placements' final vertex values
	// digested identically.
	Match bool `json:"match"`
}

// Partition is `graft-bench -partition`.
var Partition = NewExperiment("partition",
	"Placement: hash partitioning vs the streaming locality placer on communication and convergence",
	func(p Params) ([]PartitionBench, error) {
		return RunPartitionBench(PartitionWorkloads(p.Scale, p.Seed, p.Workers), p.Options)
	},
	PrintPartitionBench, CheckPartitionBench)

// PartitionWorkloads returns the placement grid. CC-web is the
// communication cell: connected components on a host-local web graph
// (WebHostGraph, ~80% intra-host links like real crawls), where hashing
// scatters each host across all workers while the locality placer keeps
// host blocks together — the cross-worker message volume is the
// measure. BFS-chain is the convergence cell: single-source BFS in
// subgraph-centric mode on chained communities, where supersteps track
// partition-boundary crossings along the chain; a placement that keeps
// communities whole crosses per partition instead of per hop.
//
// Subgraph-mode convergence depends on the partition count, so the
// chain cell pins 4 partitions for a stable superstep contrast; the web
// cell keeps the caller's worker count (the reduction holds at any k
// since host blocks are much smaller than partitions).
func PartitionWorkloads(scale float64, seed int64, workers int) []Workload {
	nWeb := max(int(20_000_000*scale), 4000)
	nChain := max(int(10_000_000*scale), 3000)
	return []Workload{
		{
			Label: "CC-web", Algorithm: algorithms.NewConnectedComponents, Workers: workers,
			Dataset: graphgen.Dataset{Name: "web-host", Build: func() *pregel.Graph { return graphgen.WebHostGraph(nWeb, 30, 8, 0.8, seed) }},
		},
		{
			Label: "BFS-chain", Algorithm: func() *algorithms.Algorithm { return algorithms.NewBFS(0) }, Workers: min(workers, 4),
			Dataset:  graphgen.Dataset{Name: "chain", Build: func() *pregel.Graph { return graphgen.ChainedCommunities(nChain, 48, 4, seed) }},
			Subgraph: true,
		},
	}
}

// RunPartitionBench measures the locality placer against the hash
// baseline across the workload grid.
func RunPartitionBench(workloads []Workload, opts Options) ([]PartitionBench, error) {
	var out []PartitionBench
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		row := PartitionBench{
			Workload:  wl.Label,
			Algorithm: wl.Algorithm().Name,
			Mode:      "vertex",
			Vertices:  base.NumVertices(),
			Edges:     base.NumEdges(),
			Workers:   wl.Workers,
			Match:     true,
		}
		if wl.Subgraph {
			row.Mode = "subgraph"
		}
		var refDigest string // of the first run; every later run must agree
		cell := func(placer pregel.PartitionerMode, supersteps *int, remote, edgeCut *int64) Cell {
			return Cell{Name: placer.String(), Run: func() (time.Duration, error) {
				stats, g, err := wl.run(base, pregel.Config{Partitioner: placer})
				if err != nil {
					return 0, err
				}
				t := stats.Totals()
				*supersteps, *remote, *edgeCut = stats.Supersteps, t.MessagesSent-t.LocalMessages, stats.EdgeCut
				row.Match = row.Match && sameValues(&refDigest, g)
				return stats.Runtime, nil
			}}
		}
		sum, err := RunPaired(Pair{
			Name:   "partition " + wl.Label,
			A:      cell(pregel.PartitionHash, &row.HashSupersteps, &row.HashRemote, &row.HashEdgeCut),
			B:      cell(pregel.PartitionLocality, &row.LocalitySupersteps, &row.LocalityRemote, &row.LocalityEdgeCut),
			Blocks: opts.Reps, Progress: opts.Progress,
		})
		if err != nil {
			return nil, err
		}
		row.Reps = sum.Blocks
		row.HashNanos = sum.FastestA.Nanoseconds()
		row.LocalityNanos = sum.FastestB.Nanoseconds()
		if row.HashRemote > 0 {
			row.RemoteReduction = 1 - float64(row.LocalityRemote)/float64(row.HashRemote)
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintPartitionBench renders the placement rows as a table.
func PrintPartitionBench(w io.Writer, rs []PartitionBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmode\tvertices\tremote h->l\treduction\tedge cut h->l\tsupersteps h->l\thash\tlocality\tmatch")
	for _, r := range rs {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d -> %d\t%.1f%%\t%d -> %d\t%d -> %d\t%s\t%s\t%v\n",
			r.Workload, r.Mode, r.Vertices, r.HashRemote, r.LocalityRemote, r.RemoteReduction*100,
			r.HashEdgeCut, r.LocalityEdgeCut, r.HashSupersteps, r.LocalitySupersteps,
			time.Duration(r.HashNanos).Round(time.Microsecond),
			time.Duration(r.LocalityNanos).Round(time.Microsecond), r.Match)
	}
	tw.Flush()
}

// CheckPartitionBench verifies the acceptance claims: both placements
// land on identical final values on every cell, the locality placer
// cuts cross-partition traffic by at least 30% on the web-graph cell,
// and the subgraph-mode chain cell converges in strictly fewer
// supersteps.
func CheckPartitionBench(rs []PartitionBench) []string {
	var problems []string
	for _, r := range rs {
		if !r.Match {
			problems = append(problems, r.Workload+": locality-placement final values diverged from hash placement")
		}
		if r.LocalityEdgeCut > r.HashEdgeCut {
			problems = append(problems, fmt.Sprintf(
				"%s: locality edge cut %d exceeds hash edge cut %d",
				r.Workload, r.LocalityEdgeCut, r.HashEdgeCut))
		}
		switch r.Workload {
		case "CC-web":
			if r.RemoteReduction < 0.30 {
				problems = append(problems, fmt.Sprintf(
					"CC-web: remote-message reduction %.1f%% below the 30%% gate (%d -> %d)",
					r.RemoteReduction*100, r.HashRemote, r.LocalityRemote))
			}
		case "BFS-chain":
			if r.LocalitySupersteps >= r.HashSupersteps {
				problems = append(problems, fmt.Sprintf(
					"BFS-chain: locality placement took %d supersteps, hash %d — no collapse",
					r.LocalitySupersteps, r.HashSupersteps))
			}
		}
	}
	return problems
}
