package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
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

// RecoveryWorkload is one algorithm/graph point of the recovery grid.
type RecoveryWorkload struct {
	Label     string
	Algorithm string
	Make      func() *algorithms.Algorithm
	Build     func() *pregel.Graph
	Workers   int
}

// RecoveryWorkloads returns the recovery grid: a long fixed-length
// PageRank (many supersteps, so failures can land far from a
// checkpoint) over the skewed preferential-attachment web graph, and
// connected components over a chained-communities graph whose
// diameter keeps label propagation running for ~25 supersteps.
func RecoveryWorkloads(scale float64, seed int64, workers int) []RecoveryWorkload {
	n := int(30_000_000 * scale)
	if n < 2000 {
		n = 2000
	}
	web := func() *pregel.Graph { return graphgen.WebGraph(n, 8, seed) }
	chain := func() *pregel.Graph { return graphgen.ChainedCommunities(n, 24, 6, seed) }
	pr := func() *algorithms.Algorithm { return algorithms.NewPageRank(24, 0.85) }
	cc := algorithms.NewConnectedComponents
	return []RecoveryWorkload{
		{Label: "PR-web", Algorithm: "pagerank", Make: pr, Build: web, Workers: workers},
		{Label: "CC-chain", Algorithm: "cc", Make: cc, Build: chain, Workers: workers},
	}
}

// valuesDigest hashes the final vertex values in canonical ID order:
// the cheap stand-in for the full trace digest at benchmark scale.
func valuesDigest(g *pregel.Graph) string {
	type kv struct {
		id  pregel.VertexID
		val []byte
	}
	var all []kv
	g.Each(func(v *pregel.Vertex) {
		all = append(all, kv{id: v.ID(), val: pregel.MarshalValue(v.Value())})
	})
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	h := sha256.New()
	e := pregel.NewEncoder()
	for _, x := range all {
		e.Reset()
		e.PutVarint(int64(x.id))
		e.PutBytes(x.val)
		h.Write(e.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// recoveryRun executes one repetition: the workload crashed once at
// failAt (partition victim) and recovered in the given mode.
func recoveryRun(wl RecoveryWorkload, base *pregel.Graph, mode pregel.RecoveryMode, failAt, victim int) (*pregel.Stats, string, error) {
	runtime.GC()
	g := base.Clone()
	cfg := pregel.Config{
		NumWorkers:         wl.Workers,
		CheckpointEvery:    RecoveryBenchCheckpointEvery,
		CheckpointFS:       dfs.NewMemFS(),
		Recovery:           mode,
		PartitionFailureAt: faults.FailPartitionAt(failAt, victim),
	}
	if mode == pregel.RecoveryLog {
		cfg.MsgLogFS = dfs.NewMemFS()
	}
	stats, err := wl.Make().Configure(g, cfg).Run()
	if err != nil {
		return nil, "", err
	}
	if stats.Recoveries != 1 {
		return nil, "", fmt.Errorf("recoveries = %d, want 1", stats.Recoveries)
	}
	return stats, valuesDigest(g), nil
}

// RunRecoveryBench measures confined log recovery against full
// checkpoint restart across the workload grid, failing early and late
// in each run. A failure-free reference run per workload learns the
// superstep count (for placing the failures) and the canonical final
// values every recovered run must reproduce.
func RunRecoveryBench(workloads []RecoveryWorkload, opts Options) ([]RecoveryBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []RecoveryBench
	for _, wl := range workloads {
		base := wl.Build()
		refGraph := base.Clone()
		refStats, err := wl.Make().Configure(refGraph, pregel.Config{
			NumWorkers: wl.Workers,
		}).Run()
		if err != nil {
			return nil, fmt.Errorf("harness: %s reference: %w", wl.Label, err)
		}
		refDigest := valuesDigest(refGraph)
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
		if early < 1 {
			early = 1
		}
		cells := []struct {
			name   string
			failAt int
		}{
			{"early", early},
			{"late", late},
		}
		for _, cell := range cells {
			row := RecoveryBench{
				Workload:        wl.Label,
				Algorithm:       wl.Algorithm,
				FailAt:          cell.name,
				FailSuperstep:   cell.failAt,
				Victim:          victim,
				Reps:            opts.Reps,
				Workers:         wl.Workers,
				Supersteps:      total,
				CheckpointMatch: true,
				LogMatch:        true,
			}
			var ckptTimes, logTimes []time.Duration
			for rep := -1; rep < opts.Reps; rep++ {
				var ct, lt time.Duration
				runCkpt := func() error {
					stats, digest, err := recoveryRun(wl, base, pregel.RecoveryCheckpoint, cell.failAt, victim)
					if err != nil {
						return fmt.Errorf("harness: %s/%s checkpoint: %w", wl.Label, cell.name, err)
					}
					ct = stats.RecoveryTime
					if digest != refDigest {
						row.CheckpointMatch = false
					}
					return nil
				}
				runLog := func() error {
					stats, digest, err := recoveryRun(wl, base, pregel.RecoveryLog, cell.failAt, victim)
					if err != nil {
						return fmt.Errorf("harness: %s/%s log: %w", wl.Label, cell.name, err)
					}
					lt = stats.RecoveryTime
					if digest != refDigest {
						row.LogMatch = false
					}
					if len(stats.RecoveryEvents) == 1 {
						ev := stats.RecoveryEvents[0]
						if ev.Mode != "log" {
							return fmt.Errorf("harness: %s/%s: recovery degraded to %s", wl.Label, cell.name, ev.Mode)
						}
						row.PartitionsRecomputed = ev.PartitionsRecomputed
						row.MessagesReplayed = ev.MessagesReplayed
					}
					row.BytesLogged = stats.BytesLogged
					return nil
				}
				first, second := runCkpt, runLog
				if rep%2 != 0 {
					first, second = runLog, runCkpt
				}
				if err := first(); err != nil {
					return nil, err
				}
				if err := second(); err != nil {
					return nil, err
				}
				if rep < 0 {
					continue // warmup
				}
				ckptTimes = append(ckptTimes, ct)
				logTimes = append(logTimes, lt)
			}
			ckptBest, logBest := fastest(ckptTimes), fastest(logTimes)
			row.CheckpointRecoveryNanos = ckptBest.Nanoseconds()
			row.LogRecoveryNanos = logBest.Nanoseconds()
			if logBest > 0 {
				row.Speedup = float64(ckptBest) / float64(logBest)
			}
			out = append(out, row)
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "%-10s fail=%-5s@%-3d ckpt=%8.2fms log=%8.2fms speedup=%.2fx confined=%d/%d\n",
					wl.Label, cell.name, cell.failAt,
					float64(ckptBest.Microseconds())/1000, float64(logBest.Microseconds())/1000,
					row.Speedup, row.PartitionsRecomputed, wl.Workers)
			}
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

// WriteRecoveryBenchJSON writes the rows as indented JSON (the
// BENCH_recovery.json artifact).
func WriteRecoveryBenchJSON(w io.Writer, rs []RecoveryBench) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
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
