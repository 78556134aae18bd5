// Command graft-bench regenerates the paper's evaluation artifacts:
// Tables 1-3 and the Figure 8 overhead experiment, whose rows it writes
// to BENCH_fig8.json.
//
//	graft-bench -table 1
//	graft-bench -table 2
//	graft-bench -table 3
//	graft-bench -fig 8 -scale 0.0005 -reps 5 -workers 8
//
// Absolute, end-to-end and per-layer numbers at benchmark scale come
// from bench/ (see bench/README), not from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"graft/internal/graphgen"
	"graft/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the
// exit status: 0, 1 for a failed run, 2 for usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graft-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "print a paper table (1, 2 or 3)")
	fig := fs.Int("fig", 0, "run a paper figure (8, alias 7)")
	out := fs.String("out", "BENCH_fig8.json", "output file for the Figure 8 rows")
	scale := fs.Float64("scale", 0.0002, "dataset scale against paper sizes")
	workers := fs.Int("workers", 8, "worker goroutines per job")
	opts := harness.Options{Progress: stderr}
	fs.IntVar(&opts.Reps, "reps", 5, "repetitions per cell (the paper used 5)")
	fs.Int64Var(&opts.Seed, "seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *table == 1:
		harness.PrintDatasetTable(stdout, fmt.Sprintf("Table 1: Graph datasets for demonstration (synthetic stand-ins at scale %g)", *scale),
			graphgen.Table1Datasets(*scale, opts.Seed))
	case *table == 2:
		harness.PrintDatasetTable(stdout, fmt.Sprintf("Table 2: Graph datasets for performance experiments (synthetic stand-ins at scale %g)", *scale),
			graphgen.Table2Datasets(*scale, opts.Seed))
	case *table == 3:
		harness.PrintConfigTable(stdout, harness.StandardConfigs(opts.Seed))
	case *fig == 7 || *fig == 8:
		if err := runFig8(*scale, *workers, opts, *out, stdout); err != nil {
			fmt.Fprintln(stderr, "graft-bench:", err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// runFig8 measures the Figure 8 grid, prints and writes its rows, and
// prints any deviation from the figure's shape. The shape check is
// advisory: at small scales the cells run for milliseconds, so a
// deviation is reported without failing the run.
func runFig8(scale float64, workers int, opts harness.Options, out string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "Figure 8: Graft's performance overhead under each Table 3 DebugConfig (scale %g, %d reps, %d workers, seed %d)\n",
		scale, opts.Reps, workers, opts.Seed)
	rows, err := harness.RunFig8(harness.StandardWorkloads(scale, opts.Seed, workers), harness.StandardConfigs(opts.Seed), opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	harness.PrintFig8(stdout, rows)
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", out)
	if problems := harness.CheckFig8Shape(rows, 0.08); len(problems) == 0 {
		fmt.Fprintln(stdout, "fig8 check: OK")
	} else {
		fmt.Fprintln(stdout, "fig8 check deviations:")
		for _, problem := range problems {
			fmt.Fprintln(stdout, "  -", problem)
		}
	}
	return nil
}
