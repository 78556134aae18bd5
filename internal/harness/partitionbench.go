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

// PartitionWorkload is one algorithm/graph point of the placement grid.
type PartitionWorkload struct {
	Label     string
	Algorithm string
	Mode      pregel.ComputeMode
	Make      func() *algorithms.Algorithm
	Build     func() *pregel.Graph
	Workers   int
}

// PartitionWorkloads returns the placement grid. CC-web is the
// communication cell: connected components on a host-local web graph
// (WebHostGraph, ~80% intra-host links like real crawls), where hashing
// scatters each host across all workers while the locality placer keeps
// host blocks together — the cross-worker message volume is the
// measure. BFS-chain is the convergence cell: single-source BFS in
// subgraph-centric mode on chained communities, where supersteps track
// partition-boundary crossings along the chain; a placement that keeps
// communities whole crosses per partition instead of per hop.
func PartitionWorkloads(scale float64, seed int64, workers int) []PartitionWorkload {
	nWeb := int(20_000_000 * scale)
	if nWeb < 4000 {
		nWeb = 4000
	}
	nChain := int(10_000_000 * scale)
	if nChain < 3000 {
		nChain = 3000
	}
	// Subgraph-mode convergence depends on the partition count, so the
	// chain cell pins 4 partitions for a stable superstep contrast; the
	// web cell keeps the caller's worker count (the reduction holds at
	// any k since host blocks are much smaller than partitions).
	chainWorkers := 4
	if workers < chainWorkers {
		chainWorkers = workers
	}
	return []PartitionWorkload{
		{
			Label: "CC-web", Algorithm: "cc", Mode: pregel.ModeVertex,
			Make:    algorithms.NewConnectedComponents,
			Build:   func() *pregel.Graph { return graphgen.WebHostGraph(nWeb, 30, 8, 0.8, seed) },
			Workers: workers,
		},
		{
			Label: "BFS-chain", Algorithm: "bfs", Mode: pregel.ModeSubgraph,
			Make:    func() *algorithms.Algorithm { return algorithms.NewBFS(0) },
			Build:   func() *pregel.Graph { return graphgen.ChainedCommunities(nChain, 48, 4, seed) },
			Workers: chainWorkers,
		},
	}
}

// partitionModeRun executes one repetition under the given placement
// and returns the stats and the final-values digest.
func partitionModeRun(wl PartitionWorkload, base *pregel.Graph, placer pregel.PartitionerMode) (*pregel.Stats, string, error) {
	runtime.GC()
	g := base.Clone()
	cfg := pregel.Config{
		NumWorkers:  wl.Workers,
		ComputeMode: wl.Mode,
		Partitioner: placer,
	}
	stats, err := wl.Make().Configure(g, cfg).Run()
	if err != nil {
		return nil, "", err
	}
	return stats, valuesDigest(g), nil
}

// RunPartitionBench measures the locality placer against the hash
// baseline across the workload grid, interleaving repetitions
// (hash/locality alternating first) so neither placement systematically
// benefits from a warm heap.
func RunPartitionBench(workloads []PartitionWorkload, opts Options) ([]PartitionBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []PartitionBench
	for _, wl := range workloads {
		base := wl.Build()
		mode := "vertex"
		if wl.Mode == pregel.ModeSubgraph {
			mode = "subgraph"
		}
		row := PartitionBench{
			Workload:  wl.Label,
			Algorithm: wl.Algorithm,
			Mode:      mode,
			Vertices:  base.NumVertices(),
			Edges:     base.NumEdges(),
			Workers:   wl.Workers,
			Reps:      opts.Reps,
			Match:     true,
		}
		var hashTimes, locTimes []time.Duration
		var hashDigest, locDigest string
		for rep := -1; rep < opts.Reps; rep++ {
			var ht, lt time.Duration
			runHash := func() error {
				stats, digest, err := partitionModeRun(wl, base, pregel.PartitionHash)
				if err != nil {
					return fmt.Errorf("harness: %s hash: %w", wl.Label, err)
				}
				ht = stats.Runtime
				row.HashSupersteps = stats.Supersteps
				row.HashRemote = stats.RemoteMessages()
				row.HashEdgeCut = stats.EdgeCut
				hashDigest = digest
				return nil
			}
			runLocality := func() error {
				stats, digest, err := partitionModeRun(wl, base, pregel.PartitionLocality)
				if err != nil {
					return fmt.Errorf("harness: %s locality: %w", wl.Label, err)
				}
				lt = stats.Runtime
				row.LocalitySupersteps = stats.Supersteps
				row.LocalityRemote = stats.RemoteMessages()
				row.LocalityEdgeCut = stats.EdgeCut
				locDigest = digest
				return nil
			}
			first, second := runHash, runLocality
			if rep%2 != 0 {
				first, second = runLocality, runHash
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if hashDigest != locDigest {
				row.Match = false
			}
			if rep < 0 {
				continue // warmup
			}
			hashTimes = append(hashTimes, ht)
			locTimes = append(locTimes, lt)
		}
		hashBest, locBest := fastest(hashTimes), fastest(locTimes)
		row.HashNanos = hashBest.Nanoseconds()
		row.LocalityNanos = locBest.Nanoseconds()
		if row.HashRemote > 0 {
			row.RemoteReduction = 1 - float64(row.LocalityRemote)/float64(row.HashRemote)
		}
		out = append(out, row)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-10s remote %9d -> %-9d (-%.1f%%)  edge-cut %8d -> %-8d  supersteps %3d -> %-3d  match=%v\n",
				wl.Label, row.HashRemote, row.LocalityRemote, row.RemoteReduction*100,
				row.HashEdgeCut, row.LocalityEdgeCut,
				row.HashSupersteps, row.LocalitySupersteps, row.Match)
		}
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

// WritePartitionBenchJSON writes the rows as indented JSON (the
// BENCH_partition.json artifact).
func WritePartitionBenchJSON(w io.Writer, rs []PartitionBench) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
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
