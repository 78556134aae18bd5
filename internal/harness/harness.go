// Package harness regenerates the paper's evaluation (Section 5): it
// runs the GC / RW / MWM algorithms over the Table 2 dataset stand-ins
// under each Table 3 DebugConfig plus a no-debug baseline, repeats and
// averages the timings, normalizes against no-debug, and reports the
// Figure 8 rows (relative runtime + capture counts). It plays the role
// of the 3X experiment manager the authors used.
//
// It also holds the repository's own experiments (compute mode,
// placement): each is an Experiment — its cells,
// its row struct and its gate — that cmd/graft-bench lists in one
// table, and each two-cell comparison is timed by RunPaired.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// NamedConfig is one DebugConfig column of Figure 8. A nil Make means
// the no-debug baseline.
type NamedConfig struct {
	Name        string
	Description string
	Make        func() core.DebugConfig
}

// StandardConfigs returns the columns of Figure 8: the no-debug
// baseline followed by core's Table 3 presets.
func StandardConfigs(seed int64) []NamedConfig {
	out := []NamedConfig{{Name: "no-debug", Description: "Baseline without Graft"}}
	for _, p := range core.Table3Presets() {
		out = append(out, NamedConfig{
			Name:        p.Name,
			Description: p.Description,
			Make:        func() core.DebugConfig { return p.Make(seed) },
		})
	}
	return out
}

// Workload is one (algorithm, dataset) point an experiment runs: a
// cluster of Figure 8 or a row of one of the paired comparisons.
type Workload struct {
	// Label is the cluster label, e.g. "GC-bp".
	Label string
	// Algorithm builds a fresh algorithm instance.
	Algorithm func() *algorithms.Algorithm
	// Dataset generates the input graph.
	Dataset graphgen.Dataset
	// Workers for the run.
	Workers int
	// Subgraph runs the algorithm's subgraph-mode port instead of its
	// vertex program; false is vertex-centric.
	Subgraph bool
}

// run executes the workload once on a clone of base under cfg (workers
// and algorithm filled in from the workload) and returns the stats and
// the graph the job left behind.
func (wl Workload) run(base *pregel.Graph, cfg pregel.Config) (*pregel.Stats, *pregel.Graph, error) {
	g := base.Clone()
	cfg.NumWorkers = wl.Workers
	alg := wl.Algorithm()
	opts := graft.RunOptions{Engine: cfg}
	if wl.Subgraph {
		opts.Subgraph = alg.Subgraph
	}
	res, err := graft.RunAlgorithm(g, alg, opts)
	if err != nil {
		return nil, g, err
	}
	return res.Stats, g, nil
}

// sameValues reports whether g's final values digest to *ref, which it
// sets from the first graph it is shown.
func sameValues(ref *string, g *pregel.Graph) bool {
	d := g.ValuesDigest()
	if *ref == "" {
		*ref = d
	}
	return d == *ref
}

// StandardWorkloads returns the Figure 8 clusters: GC on the bipartite
// graph, RW on the web graphs, and MWM on the (weighted) social graph,
// using the Table 2 stand-ins at the given scale.
func StandardWorkloads(scale float64, seed int64, workers int) []Workload {
	t2 := graphgen.Table2Datasets(scale, seed)
	sk, twitter, bp := t2[0], t2[1], t2[2]
	// MWM needs weights; use the soc-Epinions-style generator sized
	// like the sk-2005 stand-in so its cluster is comparable.
	weighted := graphgen.Dataset{
		Name:        "soc-weighted",
		Description: "weighted social graph for MWM",
		Build: func() *pregel.Graph {
			return graphgen.SocialGraph(max(int(51_000_000*scale), 2000), 6, seed+9)
		},
	}
	return []Workload{
		{Label: "GC-bp", Algorithm: func() *algorithms.Algorithm { return algorithms.NewGraphColoring(seed) }, Dataset: bp, Workers: workers},
		{Label: "RW-sk", Algorithm: func() *algorithms.Algorithm { return algorithms.NewRandomWalk(seed, 10) }, Dataset: sk, Workers: workers},
		{Label: "RW-tw", Algorithm: func() *algorithms.Algorithm { return algorithms.NewRandomWalk(seed, 10) }, Dataset: twitter, Workers: workers},
		{Label: "MWM-soc", Algorithm: func() *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(400) }, Dataset: weighted, Workers: workers},
	}
}

// Measurement is one Figure 8 bar.
type Measurement struct {
	Workload  string        `json:"workload"`
	Config    string        `json:"config"`
	MeanTime  time.Duration `json:"mean_ns"`
	StdDev    time.Duration `json:"stddev_ns"`
	Relative  float64       `json:"relative"` // mean / no-debug mean
	Captures  int64         `json:"captures"`
	TraceSize int64         `json:"trace_bytes"` // bytes of trace files written
	Reps      int           `json:"reps"`
}

// Options tunes a sweep.
type Options struct {
	// Reps is the repetition count (the paper used 5).
	Reps int
	// Seed for configs needing randomness.
	Seed int64
	// Progress, if non-nil, receives one line per finished cell.
	Progress io.Writer
}

// RunFig8 executes the full overhead grid and returns measurements in
// workload-major order, each cluster led by its no-debug baseline.
func RunFig8(workloads []Workload, configs []NamedConfig, opts Options) ([]Measurement, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []Measurement
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		var baselineMean time.Duration
		for _, cfg := range configs {
			m, err := runCell(wl, base, cfg, opts)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%s: %w", wl.Label, cfg.Name, err)
			}
			if cfg.Make == nil {
				baselineMean = m.MeanTime
			}
			if baselineMean > 0 {
				m.Relative = float64(m.MeanTime) / float64(baselineMean)
			}
			out = append(out, m)
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "%-10s %-10s %8.2fms  x%.3f  captures=%d\n",
					wl.Label, cfg.Name, float64(m.MeanTime.Microseconds())/1000, m.Relative, m.Captures)
			}
		}
	}
	return out, nil
}

// runCell measures one (workload, config) cell over opts.Reps
// repetitions, cloning the prepared graph each run. The first run is
// an unmeasured warmup, and the garbage collector runs between
// repetitions, so cells do not inherit each other's heap state.
func runCell(wl Workload, base *pregel.Graph, cfg NamedConfig, opts Options) (Measurement, error) {
	m := Measurement{Workload: wl.Label, Config: cfg.Name, Reps: opts.Reps, Relative: 1}
	times := make([]time.Duration, 0, opts.Reps)
	for rep := -1; rep < opts.Reps; rep++ {
		runtime.GC()
		run := graft.RunOptions{Engine: pregel.Config{NumWorkers: wl.Workers}}
		var fs *dfs.MemFS
		if cfg.Make != nil {
			fs = dfs.NewMemFS()
			dc := cfg.Make()
			run.JobID = fmt.Sprintf("%s-%s-%d", wl.Label, cfg.Name, rep)
			run.Store = trace.NewStore(fs, "bench")
			run.Debug = &dc
		}
		g := base.Clone()
		start := time.Now()
		res, err := graft.RunAlgorithm(g, wl.Algorithm(), run)
		if err != nil {
			return m, err
		}
		if rep < 0 {
			continue // warmup run
		}
		times = append(times, time.Since(start))
		if fs != nil {
			m.Captures = res.Captures
			m.TraceSize = fs.TotalBytes()
		}
	}
	m.MeanTime, m.StdDev = meanStd(times)
	return m, nil
}

func meanStd(times []time.Duration) (time.Duration, time.Duration) {
	if len(times) == 0 {
		return 0, 0
	}
	var sum float64
	for _, t := range times {
		sum += float64(t)
	}
	mean := sum / float64(len(times))
	var vs float64
	for _, t := range times {
		d := float64(t) - mean
		vs += d * d
	}
	std := math.Sqrt(vs / float64(len(times)))
	return time.Duration(mean), time.Duration(std)
}

// PrintFig8 renders measurements as the Figure 8 table: one row per
// bar with relative runtime (no-debug = 1.00) and capture counts.
func PrintFig8(w io.Writer, ms []Measurement) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tconfig\trelative\tmean\tstddev\tcaptures\ttrace-bytes")
	for _, m := range ms {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%s\t%s\t%d\t%d\n",
			m.Workload, m.Config, m.Relative,
			m.MeanTime.Round(time.Microsecond), m.StdDev.Round(time.Microsecond),
			m.Captures, m.TraceSize)
	}
	tw.Flush()
}

// CheckFig8Shape verifies the qualitative claims of the paper's
// Figure 8 against measurements, returning human-readable deviations:
//
//   - every debugged configuration is at least as slow as no-debug
//     (within noise), and
//   - DC-full is the most expensive configuration of its cluster
//     (within the tolerance), and
//   - capture counts are nonzero exactly for configs that select
//     anything.
//
// tolerance is the allowed relative noise (e.g. 0.05 = 5%).
func CheckFig8Shape(ms []Measurement, tolerance float64) []string {
	var problems []string
	byWorkload := map[string][]Measurement{}
	var order []string
	for _, m := range ms {
		if _, ok := byWorkload[m.Workload]; !ok {
			order = append(order, m.Workload)
		}
		byWorkload[m.Workload] = append(byWorkload[m.Workload], m)
	}
	sort.Strings(order)
	for _, wl := range order {
		cluster := byWorkload[wl]
		var full, maxRel float64
		for _, m := range cluster {
			if m.Config == "no-debug" {
				continue
			}
			if m.Relative < 1-tolerance {
				problems = append(problems,
					fmt.Sprintf("%s/%s: debugged run faster than baseline (%.3f)", wl, m.Config, m.Relative))
			}
			if m.Config == "DC-full" {
				full = m.Relative
			}
			if m.Relative > maxRel {
				maxRel = m.Relative
			}
			if m.Config == "DC-sp" && m.Captures == 0 {
				problems = append(problems, fmt.Sprintf("%s/DC-sp captured nothing", wl))
			}
		}
		if full+tolerance < maxRel {
			problems = append(problems,
				fmt.Sprintf("%s: DC-full (%.3f) is not the most expensive config (max %.3f)", wl, full, maxRel))
		}
	}
	return problems
}

// Fig8 is `graft-bench -fig 8`. Its gate is advisory: the figure's
// shape is a qualitative claim and at scale 0.0002 its cells run for
// milliseconds, so a deviation is reported without failing the run.
var Fig8 = func() Experiment {
	e := NewExperiment("fig8", "Figure 8: Graft's performance overhead under each Table 3 DebugConfig",
		func(p Params) ([]Measurement, error) {
			return RunFig8(StandardWorkloads(p.Scale, p.Seed, p.Workers), StandardConfigs(p.Seed), p.Options)
		},
		PrintFig8,
		func(ms []Measurement) []string { return CheckFig8Shape(ms, 0.08) })
	e.Advisory = true
	return e
}()
