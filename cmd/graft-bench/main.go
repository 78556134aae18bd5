// Command graft-bench regenerates the paper's evaluation artifacts —
// Tables 1-3 and the Figure 8 overhead experiment — and runs the
// repository's own paired experiments, each of which writes its rows to
// BENCH_<name>.json and exits 1 when its gate fails:
//
//	graft-bench -table 1
//	graft-bench -table 2
//	graft-bench -table 3
//	graft-bench -fig 8 -scale 0.0005 -reps 5 -workers 8
//	graft-bench -profiler -scale 0.0005 -reps 5
//	graft-bench -recovery -scale 0.0002 -reps 5
//	graft-bench -subgraph -scale 0.0002 -reps 5
//	graft-bench -partition -scale 0.0002 -reps 5
//	graft-bench -serve -scale 0.0002 -reps 5
//	graft-bench -chaos -scale 0.0005 -workers 8 -seed 42
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
	"graft/internal/servebench"
)

// experiments is the whole of what graft-bench can measure. Two-cell
// comparisons all go through harness.RunPaired.
var experiments = []harness.Experiment{
	harness.Fig8,
	harness.Profiler,
	harness.Recovery,
	harness.Subgraph,
	harness.Partition,
	servebench.Serve,
	harness.Chaos,
}

func main() {
	os.Exit(run(experiments, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its table, arguments and streams passed in; it
// returns the exit status: 0, 1 for a failed run or gate, 2 for usage.
func run(table []harness.Experiment, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graft-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	paperTable := fs.Int("table", 0, "print a paper table (1, 2 or 3)")
	fig := fs.Int("fig", 0, "run a paper figure (8, alias 7)")
	selected := map[string]*bool{}
	for _, e := range table {
		if e.Name != harness.Fig8.Name { // selected by -fig, as the paper numbers it
			selected[e.Name] = fs.Bool(e.Name, false, e.Doc)
		}
	}
	out := fs.String("out", "", "output file for the selected experiment's rows (default BENCH_<name>.json)")
	check := fs.Bool("check", true, "verify the selected experiment's claims and exit 1 on a deviation")
	var p harness.Params
	fs.Float64Var(&p.FaultP, "fault-p", 0.3, "per-operation fault probability for -chaos")
	fs.StringVar(&p.ChaosRecovery, "chaos-recovery", "log", "how the -chaos crash recovers: log (confined replay) or checkpoint (full restart)")
	fs.Float64Var(&p.Scale, "scale", 0.0002, "dataset scale against paper sizes")
	fs.IntVar(&p.Reps, "reps", 5, "repetitions per cell (the paper used 5)")
	fs.IntVar(&p.Workers, "workers", 8, "worker goroutines per job")
	fs.Int64Var(&p.Seed, "seed", 42, "random seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p.Progress = stderr

	switch *paperTable {
	case 1:
		harness.PrintDatasetTable(stdout, fmt.Sprintf("Table 1: Graph datasets for demonstration (synthetic stand-ins at scale %g)", p.Scale),
			graphgen.Table1Datasets(p.Scale, p.Seed))
		return 0
	case 2:
		harness.PrintDatasetTable(stdout, fmt.Sprintf("Table 2: Graph datasets for performance experiments (synthetic stand-ins at scale %g)", p.Scale),
			graphgen.Table2Datasets(p.Scale, p.Seed))
		return 0
	case 3:
		harness.PrintConfigTable(stdout, harness.StandardConfigs(p.Seed))
		return 0
	}
	for _, e := range table {
		on := *fig == 7 || *fig == 8
		if byName := selected[e.Name]; byName != nil {
			on = *byName
		}
		if !on {
			continue
		}
		if *out == "" {
			*out = "BENCH_" + e.Name + ".json"
		}
		if err := runExperiment(e, p, *out, *check, stdout); err != nil {
			fmt.Fprintln(stderr, "graft-bench:", err)
			return 1
		}
		return 0
	}
	fs.Usage()
	return 2
}

// runExperiment measures e, prints and writes its rows, and returns an
// error if the run, the write or — unless advisory — the gate failed.
func runExperiment(e harness.Experiment, p harness.Params, out string, check bool, stdout io.Writer) error {
	fmt.Fprintf(stdout, "%s (scale %g, %d reps, %d workers, seed %d)\n", e.Doc, p.Scale, p.Reps, p.Workers, p.Seed)
	rows, err := e.Run(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	e.Print(stdout, rows)
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", out)
	if !check {
		return nil
	}
	problems := e.Check(rows)
	if len(problems) == 0 {
		fmt.Fprintf(stdout, "%s check: OK\n", e.Name)
		return nil
	}
	fmt.Fprintf(stdout, "%s check deviations:\n", e.Name)
	for _, problem := range problems {
		fmt.Fprintln(stdout, "  -", problem)
	}
	if e.Advisory {
		return nil
	}
	return fmt.Errorf("%s check failed", e.Name)
}
