package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// The driver runs rounds: in each round one fresh child per workload,
// in the matrix's order, one at a time. Rounds are required, not
// decoration: on a small shared VM the noise is slow machine state (a
// 30-rep in-process run drifted 15% after rep 15), and one contiguous
// block per workload samples only one state.

// declaration is BENCHMARK.json: the one place the workloads, metric
// names, directions and bounds are declared.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration finds BENCHMARK.json at the repository root, from
// there or from inside bench/.
func loadDeclaration() (*declaration, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var d declaration
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

type driver struct {
	workloads []*workload
	size      size
	seed      int64
	seconds   float64
	rounds    int
	outDir    string
	out       string

	decl *declaration
	exe  string
}

// setResult is one set of rounds: per workload, every end-to-end
// metric summarised over all its samples.
type setResult struct {
	Name      string                        `json:"name"`
	EndToEnd  map[string]map[string]summary `json:"end_to_end"`
	Counts    map[string]map[string]int64   `json:"counts"`
	Shapes    map[string][2]int64           `json:"vertices_edges"`
	Reps      map[string]int                `json:"reps_per_child"`
	Attempted int64                         `json:"attempted"`
	Failed    int64                         `json:"failed"`
}

func (s *setResult) failedShare() float64 {
	if s.Attempted == 0 {
		return 1
	}
	return float64(s.Failed) / float64(s.Attempted)
}

// verdict is one row of the A/A comparison.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Diff     float64 `json:"relative_difference"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

type report struct {
	Commit     string                       `json:"commit"`
	GoVersion  string                       `json:"go_version"`
	NumCPU     int                          `json:"nproc"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	Seed       int64                        `json:"seed"`
	Size       string                       `json:"size"`
	Rounds     int                          `json:"rounds"`
	Seconds    float64                      `json:"seconds_per_child"`
	Sets       []*setResult                 `json:"sets"`
	AA         []verdict                    `json:"aa,omitempty"`
	PerLayer   map[string]map[string]metric `json:"per_layer"`
	// SelfTime is the traced pass's self time per span name, seconds.
	SelfTime map[string]map[string]float64 `json:"self_time_s"`
}

func (d *driver) run(aa bool) error {
	var err error
	if d.decl, err = loadDeclaration(); err != nil {
		return err
	}
	if d.exe, err = os.Executable(); err != nil {
		return err
	}
	rep := &report{
		Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: d.seed, Size: d.size.name,
		Rounds: d.rounds, Seconds: d.seconds,
		PerLayer: map[string]map[string]metric{}, SelfTime: map[string]map[string]float64{},
	}
	fmt.Printf("graft bench  commit=%s  %s  nproc=%d  GOMAXPROCS=%d  seed=%d  size=%s  R=%d  %gs of reps per child  workers=%d\n",
		rep.Commit, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, d.seed, d.size.name, d.rounds, d.seconds, numWorkers)

	names := []string{"A"}
	if aa {
		names = append(names, "B")
	}
	for _, name := range names {
		set, err := d.runSet(name)
		if err != nil {
			return err
		}
		rep.Sets = append(rep.Sets, set)
		d.printSet(set)
	}
	if aa {
		rep.AA = d.compare(rep.Sets[0], rep.Sets[1])
		printVerdicts(rep.AA)
	}

	failed := false
	for _, w := range d.workloads {
		res, detail, err := d.spawn(w, true)
		if err != nil {
			return err
		}
		failed = failed || !res.Correct
		rep.PerLayer[w.name], rep.SelfTime[w.name] = res.Metrics, detail.Self
		d.printLayers(w, res.Metrics)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(d.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(d.out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nreport: %s   spans: %s/spans-<workload>.json\n", d.out, d.outDir)

	for _, set := range rep.Sets {
		failed = failed || set.Failed > 0
	}
	for _, v := range rep.AA {
		failed = failed || v.Verdict != "agree"
	}
	if failed {
		return errors.New("failed: see FAILED lines, failed_share and verdicts above")
	}
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// spawn runs one child to completion and parses its detail and result
// lines. A child that found failures still reports; one that could not
// run is an error.
func (d *driver) spawn(w *workload, traced bool) (*childResult, *childDetail, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(d.exe, "-child", "-workload", w.name,
		"-seed", fmt.Sprint(d.seed), "-seconds", fmt.Sprint(d.seconds), "-trace", trace,
		"-size", d.size.name, "-outdir", d.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, nil, fmt.Errorf("child %s: %w", w.name, err)
	}
	var res childResult
	var detail childDetail
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	var last string
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "detail "); ok {
			if err := json.Unmarshal([]byte(rest), &detail); err != nil {
				return nil, nil, fmt.Errorf("child %s: detail line: %w", w.name, err)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("child %s: result line: %w", w.name, err)
	}
	return &res, &detail, nil
}

// runSet runs d.rounds rounds and pools every sample per workload.
func (d *driver) runSet(name string) (*setResult, error) {
	set := &setResult{
		Name: name, EndToEnd: map[string]map[string]summary{},
		Counts: map[string]map[string]int64{}, Shapes: map[string][2]int64{}, Reps: map[string]int{},
	}
	pooled := map[string]map[string][]float64{}
	for round := 0; round < d.rounds; round++ {
		for _, w := range d.workloads {
			res, detail, err := d.spawn(w, false)
			if err != nil {
				return nil, err
			}
			set.Attempted += res.Attempted
			set.Failed += res.Failed
			if pooled[w.name] == nil {
				pooled[w.name] = map[string][]float64{}
			}
			pool := pooled[w.name]
			for m, xs := range detail.Samples {
				pool[m] = append(pool[m], xs...)
			}
			// Counts must repeat exactly, child after child.
			set.Attempted++
			if prev, seen := set.Counts[w.name]; seen && !maps.Equal(prev, detail.Counts) {
				set.Failed++
				fmt.Printf("FAILED %s: counts differ between children: %v vs %v\n", w.name, prev, detail.Counts)
			}
			set.Counts[w.name] = detail.Counts
			set.Shapes[w.name] = [2]int64{detail.Vertices, detail.Edges}
			set.Reps[w.name] = detail.Reps
		}
	}
	for w, pool := range pooled {
		set.EndToEnd[w] = map[string]summary{}
		for m, xs := range pool {
			set.EndToEnd[w][m] = summarize(xs)
		}
	}
	return set, nil
}

func (d *driver) printSet(set *setResult) {
	fmt.Printf("\nset %s: end-to-end (tracing off), median [q1 q3] min..max over n samples\n", set.Name)
	for _, w := range d.workloads {
		shape := set.Shapes[w.name]
		fmt.Printf("  %s  V=%d E=%d  k=%d reps per child  work unit: %s  counts: %s\n",
			w.name, shape[0], shape[1], set.Reps[w.name], w.workUnit, formatCounts(set.Counts[w.name]))
		for _, m := range d.decl.EndToEnd {
			s := set.EndToEnd[w.name][m.Name]
			fmt.Printf("    %-14s %12.6g %-4s [%.6g %.6g] %.6g..%.6g n=%d  spread %.1f%% of bound %.0f%%\n",
				m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N, 100*s.spread(), 100*m.Bound)
		}
	}
	fmt.Printf("  failed_share = %g (%d of %d operations)\n", set.failedShare(), set.Failed, set.Attempted)
}

func formatCounts(counts map[string]int64) string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// compare is the A/A check: two sets of the same code must agree
// within the benchmark's own bounds, and a metric whose run-to-run
// spread is wider than its bound resolves nothing.
func (d *driver) compare(a, b *setResult) []verdict {
	var out []verdict
	for _, w := range d.workloads {
		for _, m := range d.decl.EndToEnd {
			sa, sb := a.EndToEnd[w.name][m.Name], b.EndToEnd[w.name][m.Name]
			v := verdict{
				Workload: w.name, Metric: m.Name, MedianA: sa.Median, MedianB: sb.Median,
				SpreadA: sa.spread(), SpreadB: sb.spread(), Bound: m.Bound,
				Diff: (sb.Median - sa.Median) / sa.Median, Verdict: "agree",
			}
			switch {
			case v.SpreadA > m.Bound || v.SpreadB > m.Bound:
				v.Verdict = "unresolved"
			case v.Diff > m.Bound || v.Diff < -m.Bound:
				v.Verdict = "disagree"
			}
			out = append(out, v)
		}
		if !maps.Equal(a.Counts[w.name], b.Counts[w.name]) {
			out = append(out, verdict{Workload: w.name, Metric: "counts", Verdict: "disagree"})
		}
	}
	return out
}

func printVerdicts(vs []verdict) {
	fmt.Printf("\nA/A: two sets of the same code\n")
	fmt.Printf("  %-16s %-14s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound", "verdict")
	for _, v := range vs {
		fmt.Printf("  %-16s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
			v.Workload, v.Metric, v.MedianA, v.MedianB, 100*v.Diff, 100*v.SpreadA, 100*v.SpreadB, 100*v.Bound, v.Verdict)
	}
}

// printLayers prints the traced pass: every per-layer metric, then
// where the job's wall time went as shares of pregel.run_s.
func (d *driver) printLayers(w *workload, ms map[string]metric) {
	fmt.Printf("\n%s: per-layer (traced pass)\n", w.name)
	for _, m := range d.decl.PerLayer {
		fmt.Printf("    %-32s %14.6g %s\n", m.Name, ms[m.Name].Value, ms[m.Name].Unit)
	}
	run := ms["pregel.run_s"].Value
	fmt.Printf("  share of pregel.run_s:")
	for _, name := range []string{"pregel.load_s", "pregel.compute_s", "pregel.serial_s", "core.capture_s", "trace.flush_s", "dfs.write_s"} {
		fmt.Printf("  %s %.1f%%", name, 100*ms[name].Value/run)
	}
	fmt.Println()
}
