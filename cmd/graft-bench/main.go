// Command graft-bench regenerates the paper's evaluation artifacts:
// Tables 1-3 and the Figure 8 overhead experiment, plus a chaos sweep
// that reruns the workloads under deterministic storage-fault
// injection.
//
//	graft-bench -table 1
//	graft-bench -table 2
//	graft-bench -table 3
//	graft-bench -fig 8 -scale 0.0005 -reps 5 -workers 8
//	graft-bench -chaos -scale 0.0005 -workers 8 -seed 42
//	graft-bench -metrics -scale 0.0005 -reps 5 -out BENCH_metrics.json
//	graft-bench -profiler -scale 0.0005 -reps 5 -out BENCH_profiler.json
//	graft-bench -capture -scale 0.0005 -reps 5 -out BENCH_capture.json
//	graft-bench -dfs -reps 5 -out BENCH_dfs.json
//	graft-bench -recovery -scale 0.0002 -reps 5 -out BENCH_recovery.json
//	graft-bench -serve -scale 0.0002 -reps 5 -out BENCH_serve.json
//	graft-bench -subgraph -scale 0.0002 -reps 5 -out BENCH_subgraph.json
//	graft-bench -partition -scale 0.0002 -reps 5 -out BENCH_partition.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"graft/internal/graphgen"
	"graft/internal/harness"
	"graft/internal/pregel"
	"graft/internal/servebench"
)

func main() {
	table := flag.Int("table", 0, "print a paper table (1, 2 or 3)")
	fig := flag.Int("fig", 0, "run a paper figure (8, alias 7)")
	chaos := flag.Bool("chaos", false, "run the workloads under deterministic storage-fault injection")
	metricsBench := flag.Bool("metrics", false, "measure the telemetry layer's own overhead and phase breakdowns")
	profilerBench := flag.Bool("profiler", false, "measure the profiler layer's overhead (traffic matrices + anomaly detectors) and check the traffic invariant")
	captureBench := flag.Bool("capture", false, "compare the async capture pipeline against synchronous trace writes")
	dfsBench := flag.Bool("dfs", false, "compare the pipelined streaming DFS data path against the seed serial path")
	recoveryBench := flag.Bool("recovery", false, "compare log-based confined recovery against full checkpoint restart")
	serveBench := flag.Bool("serve", false, "compare N debugged jobs run back to back against the same jobs sharing a concurrent session")
	subgraphBench := flag.Bool("subgraph", false, "compare subgraph-centric compute against the vertex-centric baseline on traversal workloads")
	partitionBench := flag.Bool("partition", false, "compare the streaming locality placer against hash partitioning on communication and convergence")
	out := flag.String("out", "", "output file for the -metrics / -capture report (default BENCH_<kind>.json)")
	faultP := flag.Float64("fault-p", 0.3, "per-operation fault probability for -chaos")
	chaosRecovery := flag.String("chaos-recovery", "log", "how the -chaos crash recovers: log (confined replay) or checkpoint (full restart)")
	scale := flag.Float64("scale", 0.0002, "dataset scale against paper sizes")
	reps := flag.Int("reps", 5, "repetitions per cell (the paper used 5)")
	workers := flag.Int("workers", 8, "worker goroutines per job")
	seed := flag.Int64("seed", 42, "random seed")
	check := flag.Bool("check", true, "verify the Figure 8 shape claims")
	flag.Parse()

	switch {
	case *table == 1:
		harness.PrintDatasetTable(os.Stdout, "Table 1: Graph datasets for demonstration (synthetic stand-ins at scale "+
			fmt.Sprintf("%g", *scale)+")", graphgen.Table1Datasets(*scale, *seed))
	case *table == 2:
		harness.PrintDatasetTable(os.Stdout, "Table 2: Graph datasets for performance experiments (synthetic stand-ins at scale "+
			fmt.Sprintf("%g", *scale)+")", graphgen.Table2Datasets(*scale, *seed))
	case *table == 3:
		harness.PrintConfigTable(os.Stdout, harness.StandardConfigs(*seed))
	case *fig == 7 || *fig == 8:
		workloads := harness.StandardWorkloads(*scale, *seed, *workers)
		configs := harness.StandardConfigs(*seed)
		fmt.Printf("Figure 8: Graft's performance overhead (scale %g, %d reps, %d workers)\n",
			*scale, *reps, *workers)
		ms, err := harness.RunFig8(workloads, configs, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintFig8(os.Stdout, ms)
		if *check {
			problems := harness.CheckFig8Shape(ms, 0.08)
			if len(problems) == 0 {
				fmt.Println("\nshape check: OK (debug configs cost >= baseline; DC-full most expensive)")
			} else {
				fmt.Println("\nshape check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
			}
		}
	case *metricsBench:
		workloads := harness.StandardWorkloads(*scale, *seed, *workers)
		configs := harness.StandardConfigs(*seed)
		debug := configs[len(configs)-1] // DC-full: the worst-case capture load
		if *out == "" {
			*out = "BENCH_metrics.json"
		}
		fmt.Printf("Metrics overhead: telemetry on vs off, phase breakdown under %s (scale %g, %d reps, %d workers)\n",
			debug.Name, *scale, *reps, *workers)
		ms, err := harness.RunMetricsBench(workloads, debug, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintMetricsBench(os.Stdout, ms)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteMetricsBenchJSON(f, ms); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckMetricsOverhead(ms, 0.05)
			if len(problems) == 0 {
				fmt.Println("overhead check: OK (telemetry costs < 5% on every workload)")
			} else {
				fmt.Println("overhead check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
			}
		}
	case *profilerBench:
		workloads := harness.StandardWorkloads(*scale, *seed, *workers)
		if *out == "" {
			*out = "BENCH_profiler.json"
		}
		fmt.Printf("Profiler overhead: traffic capture + anomaly detection on vs off (scale %g, %d reps, %d workers)\n",
			*scale, *reps, *workers)
		ps, err := harness.RunProfilerBench(workloads, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintProfilerBench(os.Stdout, ps)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteProfilerBenchJSON(f, ps); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckProfilerBench(ps, 0.05)
			if len(problems) == 0 {
				fmt.Println("profiler check: OK (overhead < 5% on every workload; traffic matrices balance)")
			} else {
				fmt.Println("profiler check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *captureBench:
		workloads := harness.StandardWorkloads(*scale, *seed, *workers)
		// all-active maximizes the capture write load, which is the part
		// of the debug cost the sync/async comparison is about.
		debug := harness.AllActiveConfig()
		if *out == "" {
			*out = "BENCH_capture.json"
		}
		fmt.Printf("Capture pipeline: undebugged vs sync sink vs async pipeline under %s (scale %g, %d reps, %d workers, store latency %v/op)\n",
			debug.Name, *scale, *reps, *workers, harness.CaptureStoreLatency)
		cs, err := harness.RunCaptureBench(workloads, debug, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintCaptureBench(os.Stdout, cs)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteCaptureBenchJSON(f, cs); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckCaptureBench(cs)
			if len(problems) == 0 {
				fmt.Println("capture check: OK (async beats sync at equal capture counts; lazy lookups read <= 1 segment)")
			} else {
				fmt.Println("capture check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
			}
		}
	case *dfsBench:
		if *out == "" {
			*out = "BENCH_dfs.json"
		}
		fmt.Printf("DFS data path: seed serial vs pipelined streaming (%d nodes, replication %d, %d writers, %d reps, node delay %v/op)\n",
			harness.DFSBenchNodes, harness.DFSBenchReplication, harness.DFSBenchWriters, *reps, harness.DFSBenchNodeDelay)
		rows, err := harness.RunDFSBench(harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintDFSBench(os.Stdout, rows)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteDFSBenchJSON(f, rows); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckDFSBench(rows)
			if len(problems) == 0 {
				fmt.Println("dfs check: OK (pipelined streaming path beats seed serial path on every workload)")
			} else {
				fmt.Println("dfs check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *recoveryBench:
		workloads := harness.RecoveryWorkloads(*scale, *seed, *workers)
		if *out == "" {
			*out = "BENCH_recovery.json"
		}
		fmt.Printf("Recovery: confined log replay vs full checkpoint restart, early vs late failures (scale %g, %d reps, %d workers, checkpoint every %d)\n",
			*scale, *reps, *workers, harness.RecoveryBenchCheckpointEvery)
		rs, err := harness.RunRecoveryBench(workloads, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintRecoveryBench(os.Stdout, rs)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteRecoveryBenchJSON(f, rs); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckRecoveryBench(rs)
			if len(problems) == 0 {
				fmt.Println("recovery check: OK (values match in both modes; confined replay beats restart on late failures)")
			} else {
				fmt.Println("recovery check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *serveBench:
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		fmt.Printf("Serving mode: %d debugged PageRank jobs, sequential session vs %d concurrent slots (scale %g, %d reps, %d worker(s)/job, store latency %v/op)\n",
			servebench.ServeBenchJobs, servebench.ServeBenchJobs, *scale, *reps, servebench.ServeBenchWorkers, servebench.ServeBenchStoreLatency)
		row, err := servebench.RunServeBench(*scale, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		servebench.PrintServeBench(os.Stdout, row)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := servebench.WriteServeBenchJSON(f, row); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := servebench.CheckServeBench(row)
			if len(problems) == 0 {
				fmt.Println("serve check: OK (concurrent session >= 1.3x aggregate throughput; digests unchanged)")
			} else {
				fmt.Println("serve check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *subgraphBench:
		workloads := harness.SubgraphWorkloads(*scale, *seed, *workers)
		if *out == "" {
			*out = "BENCH_subgraph.json"
		}
		fmt.Printf("Compute mode: vertex-centric vs subgraph-centric on traversal workloads (scale %g, %d reps, %d workers)\n",
			*scale, *reps, *workers)
		ss, err := harness.RunSubgraphBench(workloads, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintSubgraphBench(os.Stdout, ss)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WriteSubgraphBenchJSON(f, ss); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckSubgraphBench(ss)
			if len(problems) == 0 {
				fmt.Println("subgraph check: OK (digests match; subgraph mode collapses supersteps and wall clock; CC-bp <= 10%)")
			} else {
				fmt.Println("subgraph check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *partitionBench:
		workloads := harness.PartitionWorkloads(*scale, *seed, *workers)
		if *out == "" {
			*out = "BENCH_partition.json"
		}
		fmt.Printf("Placement: hash partitioning vs streaming locality placer (scale %g, %d reps, %d workers)\n",
			*scale, *reps, *workers)
		ps, err := harness.RunPartitionBench(workloads, harness.Options{
			Reps: *reps, Seed: *seed, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintPartitionBench(os.Stdout, ps)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := harness.WritePartitionBenchJSON(f, ps); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Printf("\nwrote %s\n", *out)
		if *check {
			problems := harness.CheckPartitionBench(ps)
			if len(problems) == 0 {
				fmt.Println("partition check: OK (digests match; locality cuts >= 30% of cross-partition traffic on CC-web; BFS-chain collapses supersteps)")
			} else {
				fmt.Println("partition check deviations:")
				for _, p := range problems {
					fmt.Println("  -", p)
				}
				os.Exit(1)
			}
		}
	case *chaos:
		workloads := harness.StandardWorkloads(*scale, *seed, *workers)
		var mode pregel.RecoveryMode
		switch *chaosRecovery {
		case "log":
			mode = pregel.RecoveryLog
		case "checkpoint":
			mode = pregel.RecoveryCheckpoint
		default:
			log.Fatalf("graft-bench: unknown -chaos-recovery %q (log, checkpoint)", *chaosRecovery)
		}
		fmt.Printf("Chaos sweep: workloads under seeded storage faults (scale %g, %d workers, seed %d, p=%g, recovery=%s)\n",
			*scale, *workers, *seed, *faultP, mode)
		ms, err := harness.RunChaos(workloads, harness.ChaosOptions{
			Seed: *seed, FaultP: *faultP, Recovery: mode, Progress: os.Stderr,
		})
		if err != nil {
			log.Fatalf("graft-bench: %v", err)
		}
		fmt.Println()
		harness.PrintChaos(os.Stdout, ms)
		for _, m := range ms {
			if !m.Match {
				log.Fatalf("graft-bench: %s diverged from its fault-free run", m.Workload)
			}
		}
		fmt.Println("\nchaos check: OK (all workloads match their fault-free runs)")
	default:
		flag.Usage()
		os.Exit(2)
	}
}
