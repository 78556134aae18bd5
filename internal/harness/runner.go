package harness

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Params is what graft-bench's flags resolve to; an experiment reads
// the subset it needs.
type Params struct {
	Options
	// Scale sizes the datasets against the paper's.
	Scale float64
	// Workers is the worker-goroutine count per job.
	Workers int
	// FaultP and ChaosRecovery are -chaos's own flags.
	FaultP        float64
	ChaosRecovery string
}

// Experiment is one row of graft-bench's table: everything around it —
// the flag, the default BENCH_<Name>.json, the heading, writing the
// rows and turning a failed gate into exit status 1 — is generated from
// these fields once, in cmd/graft-bench.
type Experiment struct {
	// Name is the flag that selects the experiment and names its
	// artifact.
	Name string
	// Doc is the flag's help text and the report's heading.
	Doc string
	// Advisory marks a gate whose deviations are printed but do not
	// fail the run.
	Advisory bool
	// Run measures and returns the rows: the value written as JSON.
	Run func(Params) (any, error)
	// Print renders the rows Run returned as a table.
	Print func(io.Writer, any)
	// Check returns the deviations from the experiment's claims; none
	// means the gate passed.
	Check func(any) []string
	// NewRows returns a pointer to an empty value of the rows' type,
	// for decoding an artifact back.
	NewRows func() any
}

// NewExperiment builds an Experiment from functions typed on its rows.
func NewExperiment[R any](name, doc string, run func(Params) (R, error), print func(io.Writer, R), check func(R) []string) Experiment {
	return Experiment{
		Name:    name,
		Doc:     doc,
		Run:     func(p Params) (any, error) { return run(p) },
		Print:   func(w io.Writer, rows any) { print(w, rows.(R)) },
		Check:   func(rows any) []string { return check(rows.(R)) },
		NewRows: func() any { return new(R) },
	}
}

// Cell is one side of a paired comparison. Run executes the workload
// once and returns the cell's sample: the run's wall time, or the
// narrower interval the comparison is about (Stats.RecoveryTime).
type Cell struct {
	Name string
	Run  func() (time.Duration, error)
}

// Pair is one two-cell comparison for RunPaired.
type Pair struct {
	// Name identifies the comparison in errors and progress lines.
	Name string
	A, B Cell
	// Blocks is how many ABBA blocks are measured (graft-bench -reps);
	// 0 means 5, the paper's repetition count.
	Blocks int
	// MinTotal, when set, raises Blocks — to at most maxBlocks — until
	// each side's samples should sum to it, going by the warm-up block:
	// a millisecond-scale cell needs more samples than a long one to
	// shed scheduler noise.
	MinTotal time.Duration
	// Progress, if non-nil, receives one line when the pair finishes.
	Progress io.Writer
}

const maxBlocks = 25

// Summary is what RunPaired measured.
type Summary struct {
	// Blocks is the number of measured blocks actually run.
	Blocks int
	// A and B hold each cell's samples in run order, two per block.
	A, B []time.Duration
	// FastestA and FastestB are each side's minimum sample.
	FastestA, FastestB time.Duration
	// Ratio is the median over blocks of (b0+b1)/(a0+a1), or 1 when
	// there is nothing to compare. A block's four runs are adjacent in
	// time and hold both orders, so machine-load drift and run-position
	// bias (the second run of a pair inheriting the first's heap) both
	// cancel — summarizing the cells independently would misread either
	// as a difference.
	Ratio float64
}

// RunPaired times two cells against each other. Every block runs them
// first, second, second, first, and the cell that goes first alternates
// per block (A B B A, then B A A B); the garbage collector runs before
// each cell so none inherits another's heap; and one unmeasured warm-up
// block precedes the measured ones. An error from either cell stops the
// run and is returned with the pair's and the cell's name.
func RunPaired(p Pair) (Summary, error) {
	blocks := p.Blocks
	if blocks <= 0 {
		blocks = 5
	}
	type side struct {
		cell    Cell
		samples []time.Duration
	}
	a, b := &side{cell: p.A}, &side{cell: p.B}
	for block := -1; block < blocks; block++ {
		first, second := a, b
		if block%2 != 0 {
			first, second = b, a
		}
		for _, s := range [4]*side{first, second, second, first} {
			runtime.GC()
			d, err := s.cell.Run()
			if err != nil {
				return Summary{}, fmt.Errorf("harness: %s: %s: %w", p.Name, s.cell.Name, err)
			}
			s.samples = append(s.samples, d)
		}
		if block >= 0 {
			continue
		}
		if warm := a.samples[0] + a.samples[1]; p.MinTotal > 0 && warm > 0 {
			blocks = min(max(blocks, int(p.MinTotal/warm)), maxBlocks)
		}
		a.samples, b.samples = nil, nil // the warm-up block is not a sample
	}
	s := Summary{
		Blocks: blocks, A: a.samples, B: b.samples,
		FastestA: fastest(a.samples), FastestB: fastest(b.samples),
		Ratio: medianBlockRatio(a.samples, b.samples),
	}
	if p.Progress != nil {
		fmt.Fprintf(p.Progress, "%-24s %s=%v %s=%v ratio=%.3f blocks=%d\n", p.Name,
			p.A.Name, s.FastestA.Round(time.Microsecond), p.B.Name, s.FastestB.Round(time.Microsecond), s.Ratio, blocks)
	}
	return s, nil
}

// fastest returns the minimum of times (0 if empty).
func fastest(times []time.Duration) time.Duration {
	if len(times) == 0 {
		return 0
	}
	return slices.Min(times)
}

// medianBlockRatio is Summary.Ratio over samples laid out two per block.
func medianBlockRatio(a, b []time.Duration) float64 {
	ratios := make([]float64, 0, len(a)/2)
	for i := 0; i+1 < len(a) && i+1 < len(b); i += 2 {
		if sum := a[i] + a[i+1]; sum > 0 {
			ratios = append(ratios, float64(b[i]+b[i+1])/float64(sum))
		}
	}
	if len(ratios) == 0 {
		return 1
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid]
	}
	return (ratios[mid-1] + ratios[mid]) / 2
}
