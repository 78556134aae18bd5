package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// RecoveryBenchCheckpointEvery is the checkpoint interval of the
// recovery experiment. Eight supersteps between checkpoints makes the
// late-failure cells expensive for a full restart — up to seven
// supersteps of whole-cluster re-execution — which is exactly the
// regime confined recovery is for.
const RecoveryBenchCheckpointEvery = 8

// RecoveryBench is one cell of the recovery experiment behind
// `graft-bench -recovery`: the same workload crashed at the same
// barrier, recovered once by full checkpoint restart and once by
// log-based confined replay. Cost is Stats.RecoveryTime — for
// restarts that includes re-executing the rewound supersteps, for
// confined recovery the replay itself — so the two numbers measure
// the same thing: wall time from failure to caught-up.
type RecoveryBench struct {
	Workload  string `json:"workload"`
	Algorithm string `json:"algorithm"`
	// FailAt names the grid point: "early" (about a quarter into the
	// run) or "late" (just before the end, far from a checkpoint).
	FailAt        string `json:"fail_at"`
	FailSuperstep int    `json:"fail_superstep"`
	// Victim is the seed-picked partition that fails.
	Victim  int `json:"victim"`
	Reps    int `json:"reps"`
	Workers int `json:"workers"`
	// Supersteps is the failure-free superstep count; both recovered
	// runs must match it.
	Supersteps int `json:"supersteps"`
	// CheckpointRecoveryNanos / LogRecoveryNanos are the fastest
	// repetitions of each mode's RecoveryTime.
	CheckpointRecoveryNanos int64 `json:"checkpoint_recovery_ns"`
	LogRecoveryNanos        int64 `json:"log_recovery_ns"`
	// Speedup is checkpoint/log: >1 means confined recovery won.
	Speedup float64 `json:"speedup"`
	// PartitionsRecomputed is the confined run's rollback scope (the
	// checkpoint run always recomputes all Workers partitions).
	PartitionsRecomputed int `json:"partitions_recomputed"`
	// MessagesReplayed / BytesLogged report the log mode's traffic.
	MessagesReplayed int64 `json:"messages_replayed"`
	BytesLogged      int64 `json:"bytes_logged"`
	// CheckpointMatch / LogMatch report whether each recovered run's
	// final vertex values digest-matched the failure-free run.
	CheckpointMatch bool `json:"checkpoint_match"`
	LogMatch        bool `json:"log_match"`
}

// Recovery is `graft-bench -recovery`.
var Recovery = NewExperiment("recovery",
	"Recovery: confined log replay vs full checkpoint restart, failing early and late between checkpoints",
	func(p Params) ([]RecoveryBench, error) {
		return RunRecoveryBench(RecoveryWorkloads(p.Scale, p.Seed, p.Workers), p.Options)
	},
	PrintRecoveryBench, CheckRecoveryBench)

// RecoveryWorkloads returns the recovery grid: a long fixed-length
// PageRank (many supersteps, so failures can land far from a
// checkpoint) over the skewed preferential-attachment web graph, and
// connected components over a chained-communities graph whose
// diameter keeps label propagation running for ~25 supersteps.
func RecoveryWorkloads(scale float64, seed int64, workers int) []Workload {
	n := max(int(30_000_000*scale), 2000)
	web := graphgen.Dataset{Name: "web", Build: func() *pregel.Graph { return graphgen.WebGraph(n, 8, seed) }}
	chain := graphgen.Dataset{Name: "chain", Build: func() *pregel.Graph { return graphgen.ChainedCommunities(n, 24, 6, seed) }}
	pr := func() *algorithms.Algorithm { return algorithms.NewPageRank(24, 0.85) }
	return []Workload{
		{Label: "PR-web", Algorithm: pr, Dataset: web, Workers: workers},
		{Label: "CC-chain", Algorithm: algorithms.NewConnectedComponents, Dataset: chain, Workers: workers},
	}
}

// RunRecoveryBench measures confined log recovery against full
// checkpoint restart across the workload grid, failing early and late
// in each run. A failure-free reference run per workload learns the
// superstep count (for placing the failures) and the canonical final
// values every recovered run must reproduce.
func RunRecoveryBench(workloads []Workload, opts Options) ([]RecoveryBench, error) {
	var out []RecoveryBench
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		refStats, refGraph, err := wl.run(base, pregel.Config{})
		if err != nil {
			return nil, fmt.Errorf("harness: %s reference: %w", wl.Label, err)
		}
		refDigest := refGraph.ValuesDigest()
		total := refStats.Supersteps
		if total < 4 {
			return nil, fmt.Errorf("harness: %s converged in %d supersteps, too short to crash meaningfully", wl.Label, total)
		}
		victim := faults.PickPartition(opts.Seed, wl.Workers)

		// "late" is the last barrier a full checkpoint interval away
		// from its checkpoint — the maximal rollback window, where a
		// restart re-executes up to CheckpointEvery supersteps across
		// the whole cluster. "early" fails right after a checkpoint,
		// where both modes have almost nothing to replay.
		late := -1
		for s := total - 1; s >= 1; s-- {
			if s%RecoveryBenchCheckpointEvery == RecoveryBenchCheckpointEvery-1 {
				late = s
				break
			}
		}
		if late < 1 {
			late = total - 1
		}
		early := RecoveryBenchCheckpointEvery + 1
		if early >= late {
			early = late / 2
		}
		early = max(early, 1)
		for _, at := range []struct {
			name   string
			failAt int
		}{{"early", early}, {"late", late}} {
			row := RecoveryBench{
				Workload:        wl.Label,
				Algorithm:       wl.Algorithm().Name,
				FailAt:          at.name,
				FailSuperstep:   at.failAt,
				Victim:          victim,
				Workers:         wl.Workers,
				Supersteps:      total,
				CheckpointMatch: true,
				LogMatch:        true,
			}
			// cell crashes partition victim once at the barrier and
			// recovers in the given mode; its sample is RecoveryTime.
			cell := func(mode pregel.RecoveryMode, match *bool) Cell {
				return Cell{Name: mode.String(), Run: func() (time.Duration, error) {
					cfg := pregel.Config{
						CheckpointEvery:    RecoveryBenchCheckpointEvery,
						CheckpointFS:       dfs.NewMemFS(),
						Recovery:           mode,
						PartitionFailureAt: faults.FailPartitionAt(at.failAt, victim),
					}
					if mode == pregel.RecoveryLog {
						cfg.MsgLogFS = dfs.NewMemFS()
					}
					stats, g, err := wl.run(base, cfg)
					if err != nil {
						return 0, err
					}
					if stats.Recoveries != 1 {
						return 0, fmt.Errorf("recoveries = %d, want 1", stats.Recoveries)
					}
					if g.ValuesDigest() != refDigest {
						*match = false
					}
					if mode == pregel.RecoveryLog {
						if len(stats.RecoveryEvents) == 1 {
							ev := stats.RecoveryEvents[0]
							if ev.Mode != "log" {
								return 0, fmt.Errorf("recovery degraded to %s", ev.Mode)
							}
							row.PartitionsRecomputed = ev.PartitionsRecomputed
							row.MessagesReplayed = ev.MessagesReplayed
						}
						row.BytesLogged = stats.BytesLogged
					}
					return stats.RecoveryTime, nil
				}}
			}
			sum, err := RunPaired(Pair{
				Name:   fmt.Sprintf("recovery %s/%s@%d", wl.Label, at.name, at.failAt),
				A:      cell(pregel.RecoveryCheckpoint, &row.CheckpointMatch),
				B:      cell(pregel.RecoveryLog, &row.LogMatch),
				Blocks: opts.Reps, Progress: opts.Progress,
			})
			if err != nil {
				return nil, err
			}
			row.Reps = sum.Blocks
			row.CheckpointRecoveryNanos = sum.FastestA.Nanoseconds()
			row.LogRecoveryNanos = sum.FastestB.Nanoseconds()
			if sum.FastestB > 0 {
				row.Speedup = float64(sum.FastestA) / float64(sum.FastestB)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// PrintRecoveryBench renders the recovery rows as a table.
func PrintRecoveryBench(w io.Writer, rs []RecoveryBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tfail\tsuperstep\tcheckpoint\tlog\tspeedup\tconfined\treplayed\tmatch")
	for _, r := range rs {
		match := "both"
		if !r.CheckpointMatch || !r.LogMatch {
			match = fmt.Sprintf("ckpt=%v log=%v", r.CheckpointMatch, r.LogMatch)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%s\t%s\t%.2fx\t%d/%d\t%d\t%s\n",
			r.Workload, r.FailAt, r.FailSuperstep, r.Supersteps,
			time.Duration(r.CheckpointRecoveryNanos).Round(time.Microsecond),
			time.Duration(r.LogRecoveryNanos).Round(time.Microsecond),
			r.Speedup, r.PartitionsRecomputed, r.Workers, r.MessagesReplayed, match)
	}
	tw.Flush()
}

// CheckRecoveryBench verifies the acceptance claims: every recovered
// run reproduced the failure-free values in both modes, confined
// recovery really was confined, and on the late-failure cells — where
// a restart re-executes most of a checkpoint interval across the whole
// cluster — confined log recovery is strictly faster.
func CheckRecoveryBench(rs []RecoveryBench) []string {
	var problems []string
	for _, r := range rs {
		cell := fmt.Sprintf("%s/%s", r.Workload, r.FailAt)
		if !r.CheckpointMatch {
			problems = append(problems, cell+": checkpoint-recovered values diverged from failure-free run")
		}
		if !r.LogMatch {
			problems = append(problems, cell+": log-recovered values diverged from failure-free run")
		}
		if r.PartitionsRecomputed >= r.Workers {
			problems = append(problems, fmt.Sprintf(
				"%s: log recovery recomputed %d/%d partitions — not confined", cell, r.PartitionsRecomputed, r.Workers))
		}
		if r.FailAt == "late" && r.LogRecoveryNanos >= r.CheckpointRecoveryNanos {
			problems = append(problems, fmt.Sprintf(
				"%s: confined log recovery (%v) not faster than checkpoint restart (%v)",
				cell, time.Duration(r.LogRecoveryNanos), time.Duration(r.CheckpointRecoveryNanos)))
		}
	}
	return problems
}
