// Command bench is Graft's absolute, layer-by-layer benchmark: five
// workloads through generate → graphio round trip → partition →
// supersteps → capture → trace flush → DFS write → lazy read-back →
// replay, every layer measured from outside. See README.md.
//
// Run as a child (-child, what BENCHMARK.json's command does) it
// measures one workload in this process and prints one JSON result as
// its last line. Run without -child it is the driver: rounds of fresh
// children, one at a time, pooled into a table and a JSON report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		childMode = flag.Bool("child", false, "measure one workload in this process and print its JSON result")
		name      = flag.String("workload", "", "workload to run (driver: default all)")
		seed      = flag.Int64("seed", 42, "workload seed (7 is the hold-out)")
		secs      = flag.Float64("seconds", 8, "seconds of timed reps per child (BENCHMARK.json's run_seconds)")
		traced    = flag.Int("trace", 0, "child: 1 runs the traced pass and reports per-layer metrics")
		sizeName  = flag.String("size", "full", "full or tiny")
		rounds    = flag.Int("rounds", 3, "driver: rounds of one child per workload")
		aa        = flag.Bool("aa", false, "driver: run the whole set twice and compare the two")
		out       = flag.String("out", "", "driver: JSON report path (default <outdir>/latest.json)")
		outDir    = flag.String("outdir", defaultOutDir(), "where spans and the report are written")
	)
	flag.Parse()

	sz, ok := sizes[*sizeName]
	if !ok {
		fatal(fmt.Errorf("unknown size %q", *sizeName))
	}
	if *childMode {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		os.Exit(childMain(childOptions{
			workload: w, size: sz, seed: *seed, seconds: *secs,
			traced: *traced != 0, setups: setupsPerRun, spansDir: *outDir,
		}))
	}

	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []*workload{w}
	}
	if *out == "" {
		*out = *outDir + "/latest.json"
	}
	d := &driver{
		workloads: selected, size: sz, seed: *seed, seconds: *secs,
		rounds: *rounds, outDir: *outDir, out: *out,
	}
	if err := d.run(*aa); err != nil {
		fatal(err)
	}
}

// childMain prints the child's detail line and, last, its result.
func childMain(opt childOptions) int {
	res, detail, err := runChild(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, f := range detail.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	detailJSON, _ := json.Marshal(detail) // plain data: cannot fail
	fmt.Printf("detail %s\n", detailJSON)
	resJSON, _ := json.Marshal(res)
	fmt.Printf("%s\n", resJSON)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultOutDir is bench/out from the repository root and out from
// inside bench/.
func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return "bench/out"
	}
	return "out"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
