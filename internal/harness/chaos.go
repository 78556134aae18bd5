package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"graft"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// Chaos is `graft-bench -chaos`: every workload must survive the abuse
// with the values of its fault-free run.
var Chaos = NewExperiment("chaos",
	"Chaos sweep: the Figure 8 workloads under seeded storage faults, a datanode kill and one partition crash",
	func(p Params) ([]ChaosMeasurement, error) {
		opts := ChaosOptions{Seed: p.Seed, FaultP: p.FaultP, Progress: p.Progress}
		switch p.ChaosRecovery {
		case "log":
			opts.Recovery = pregel.RecoveryLog
		case "checkpoint":
			opts.Recovery = pregel.RecoveryCheckpoint
		default:
			return nil, fmt.Errorf("unknown -chaos-recovery %q (log, checkpoint)", p.ChaosRecovery)
		}
		return RunChaos(StandardWorkloads(p.Scale, p.Seed, p.Workers), opts)
	},
	PrintChaos,
	func(ms []ChaosMeasurement) []string {
		var problems []string
		for _, m := range ms {
			if !m.Match {
				problems = append(problems, m.Workload+": diverged from its fault-free run")
			}
		}
		return problems
	})

// The chaos run checkpoints every chaosCheckpointEvery supersteps and
// crashes one partition, once, after superstep chaosCrashAt.
const (
	chaosCheckpointEvery = 2
	chaosCrashAt         = 3
)

// ChaosOptions tunes a RunChaos sweep: each workload runs once on
// healthy storage (the reference) and once with seeded faults injected
// into the checkpoint file system, the trace file system and one
// datanode, a partition crash forcing recovery mid-job.
type ChaosOptions struct {
	// Seed drives the dataset, the injectors and the retry jitter.
	Seed int64
	// FaultP is the per-operation fault probability injected into
	// storage writes.
	FaultP float64
	// Recovery selects how the injected crash is recovered:
	// RecoveryCheckpoint (the zero value) restarts the whole job,
	// RecoveryLog confines the recomputation to the seed-picked victim
	// partition and replays its inbox from the outbox logs.
	Recovery pregel.RecoveryMode
	// Progress, if non-nil, receives one line per finished workload.
	Progress io.Writer
}

// ChaosMeasurement is one row of the chaos table: how much abuse one
// workload absorbed and whether its output still matched the
// fault-free reference run.
type ChaosMeasurement struct {
	Workload   string `json:"workload"`
	Supersteps int    `json:"supersteps"`
	Recoveries int    `json:"recoveries"`
	// Victim is the seed-picked partition the crash takes down.
	Victim int `json:"victim"`
	// RecoveryMode is the mode the engine actually recovered in ("log",
	// "checkpoint", or "" when no recovery ran) — a broken log degrades
	// to "checkpoint", and the table makes that visible.
	RecoveryMode string            `json:"recovery_mode"`
	Faults       pregel.FaultStats `json:"faults"`
	// NodeWriteRetries counts block placements retried on another
	// datanode inside the simulated DFS.
	NodeWriteRetries int64 `json:"node_write_retries"`
	// Captures written by the debugged chaos run.
	Captures int64 `json:"captures"`
	// Match reports whether every vertex value equals the fault-free
	// run's.
	Match   bool          `json:"match"`
	Runtime time.Duration `json:"runtime_ns"`
}

// RunChaos executes each workload under injected storage faults, a
// datanode kill/revive and one worker crash, comparing final vertex
// values against a fault-free run of the same seeded dataset.
func RunChaos(workloads []Workload, opts ChaosOptions) ([]ChaosMeasurement, error) {
	var out []ChaosMeasurement
	for _, wl := range workloads {
		m, err := runChaosCell(wl, opts)
		if err != nil {
			return nil, fmt.Errorf("harness: chaos %s: %w", wl.Label, err)
		}
		out = append(out, m)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-10s recoveries=%d(%s victim=%d) %s node-write-retries=%d match=%v\n",
				m.Workload, m.Recoveries, m.RecoveryMode, m.Victim, m.Faults, m.NodeWriteRetries, m.Match)
		}
	}
	return out, nil
}

func runChaosCell(wl Workload, opts ChaosOptions) (ChaosMeasurement, error) {
	m := ChaosMeasurement{Workload: wl.Label}
	base := wl.Dataset.Build()

	// Reference: the same graph and algorithm on healthy storage.
	_, ref, err := wl.run(base, pregel.Config{})
	if err != nil {
		return m, err
	}

	// Chaos run: simulated DFS under the checkpoints and traces, a
	// fault injector and retry layer on each path, a memory fallback
	// for traces, one worker crash and one datanode kill/revive.
	cluster := dfs.NewCluster(4, 2, 8<<10)
	ckptFS := faults.NewRetryFS(faults.NewFaultFS(cluster, faults.ChaosPlan(opts.Seed, opts.FaultP)), opts.Seed)
	traceFS := faults.NewFallbackFS(
		faults.NewRetryFS(faults.NewFaultFS(cluster, faults.ChaosPlan(opts.Seed+1, opts.FaultP)), opts.Seed+1),
		dfs.NewMemFS(),
	)
	crashed := false
	cfg := pregel.Config{
		NumWorkers:       wl.Workers,
		CheckpointEvery:  chaosCheckpointEvery,
		CheckpointFS:     ckptFS,
		CheckpointPrefix: "chaos-ckpt/",
		Recovery:         opts.Recovery,
	}
	if opts.Recovery == pregel.RecoveryLog {
		// The outbox logs live on their own healthy memory FS: the chaos
		// experiment abuses checkpoint and trace storage, and a log write
		// failure would (correctly, but uninterestingly) degrade every
		// run to checkpoint restart.
		cfg.MsgLogFS = dfs.NewMemFS()
	}
	// The crash is confined to a seed-picked victim partition; it takes
	// datanode 0 down with it and the next barrier revives it,
	// triggering re-replication.
	m.Victim = faults.PickPartition(opts.Seed, wl.Workers)
	cfg.PartitionFailureAt = func(superstep int) []int {
		if superstep == chaosCrashAt && !crashed {
			crashed = true
			cluster.Kill(0)
			return []int{m.Victim}
		}
		if crashed && superstep == chaosCrashAt+1 && !cluster.Node(0).Alive() {
			cluster.Revive(0)
		}
		return nil
	}
	g := base.Clone()
	res, err := graft.RunAlgorithm(g, wl.Algorithm(), graft.RunOptions{
		JobID:  fmt.Sprintf("chaos-%s", wl.Label),
		Engine: cfg,
		Store:  trace.NewStore(traceFS, "chaos"),
		Debug: &core.DebugConfig{
			CaptureIDs:        []pregel.VertexID{1, 2, 3, 4, 5},
			CaptureExceptions: true,
		},
	})
	if err != nil {
		return m, err
	}
	stats := res.Stats
	m.Runtime = stats.Runtime
	m.Supersteps = stats.Supersteps
	m.Recoveries = stats.Recoveries
	if len(stats.RecoveryEvents) > 0 {
		m.RecoveryMode = stats.RecoveryEvents[len(stats.RecoveryEvents)-1].Mode
	}
	m.Faults = stats.Faults
	m.NodeWriteRetries = cluster.WriteRetries()
	m.Captures = res.Captures

	m.Match = g.ValuesDigest() == ref.ValuesDigest()
	return m, nil
}

// PrintChaos renders chaos measurements as a table.
func PrintChaos(w io.Writer, ms []ChaosMeasurement) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tsupersteps\trecoveries\tmode\tvictim\tinjected\tretries\tbackoff\tfallbacks\tdropped\tcorrupt-ckpts\tnode-retries\tcaptures\tmatch")
	for _, m := range ms {
		mode := m.RecoveryMode
		if mode == "" {
			mode = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			m.Workload, m.Supersteps, m.Recoveries, mode, m.Victim,
			m.Faults.Injected, m.Faults.Retries, m.Faults.Backoff.Round(time.Microsecond),
			m.Faults.Fallbacks, m.Faults.DroppedRecords, m.Faults.CorruptCheckpoints,
			m.NodeWriteRetries, m.Captures, m.Match)
	}
	tw.Flush()
}
