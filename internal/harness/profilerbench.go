package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"graft/internal/pregel"
)

// ProfilerBench is one workload's row of the profiler-overhead
// experiment behind `graft-bench -profiler`. Two cells feed it, so the
// comparison isolates exactly what the profiler adds (the
// per-superstep traffic-matrix snapshot plus the anomaly-detector pass
// at each barrier):
//
//   - off: AnomalyWindow = -1 — telemetry without the profiler layer,
//   - on: detectors and traffic capture at the default window.
//
// Overhead is the headline number the acceptance gate checks (<5%).
type ProfilerBench struct {
	Workload string `json:"workload"`
	// Reps is the measured ABBA block count actually run — at least
	// the requested count, raised for sub-second workloads until each
	// cell accumulates enough wall time to summarize stably.
	Reps int `json:"reps"`
	// OffNanos is the fastest runtime with the profiler layer disabled.
	OffNanos int64 `json:"profiler_off_ns"`
	// OnNanos is the fastest runtime with traffic capture + detection on.
	OnNanos int64 `json:"profiler_on_ns"`
	// Overhead is the median per-block on/off ratio minus one.
	Overhead float64 `json:"profiler_overhead"`
	// The remaining fields describe the profiled run.
	Supersteps int `json:"supersteps"`
	// TrafficMessages sums every captured traffic matrix; with capture
	// on at every superstep it must equal MessagesSent.
	TrafficMessages int64 `json:"traffic_messages"`
	MessagesSent    int64 `json:"messages_sent"`
	// TrafficConsistent reports the per-superstep invariant: each
	// matrix sums to exactly that superstep's MessagesSent.
	TrafficConsistent bool `json:"traffic_consistent"`
	Anomalies         int  `json:"anomalies"`
}

// Profiler is `graft-bench -profiler`.
var Profiler = NewExperiment("profiler",
	"Profiler overhead: traffic-matrix capture + anomaly detection on vs off, and the traffic invariant",
	func(p Params) ([]ProfilerBench, error) {
		return RunProfilerBench(StandardWorkloads(p.Scale, p.Seed, p.Workers), p.Options)
	},
	PrintProfilerBench,
	func(ps []ProfilerBench) []string { return CheckProfilerBench(ps, 0.05) })

// RunProfilerBench measures what the profiler layer itself costs: for
// each workload it compares detection-off (AnomalyWindow=-1) against
// detection-on runs of the bare engine, and checks the traffic
// invariant on the profiled run.
func RunProfilerBench(workloads []Workload, opts Options) ([]ProfilerBench, error) {
	var out []ProfilerBench
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		var profiled *pregel.Stats
		cell := func(name string, window int) Cell {
			return Cell{Name: name, Run: func() (time.Duration, error) {
				stats, _, err := wl.run(base, pregel.Config{AnomalyWindow: window})
				if err != nil {
					return 0, err
				}
				if window >= 0 {
					profiled = stats
				}
				return stats.Runtime, nil
			}}
		}
		sum, err := RunPaired(Pair{
			Name: "profiler " + wl.Label, A: cell("off", -1), B: cell("on", 0),
			Blocks: opts.Reps, MinTotal: 500 * time.Millisecond, Progress: opts.Progress,
		})
		if err != nil {
			return nil, err
		}
		row := ProfilerBench{
			Workload:          wl.Label,
			Reps:              sum.Blocks,
			OffNanos:          sum.FastestA.Nanoseconds(),
			OnNanos:           sum.FastestB.Nanoseconds(),
			Overhead:          sum.Ratio - 1,
			Supersteps:        profiled.Supersteps,
			MessagesSent:      profiled.TotalMessages,
			Anomalies:         len(profiled.Anomalies),
			TrafficConsistent: true,
		}
		for _, ss := range profiled.PerSuperstep {
			var total int64
			for _, r := range ss.Traffic {
				for _, v := range r {
					total += v
				}
			}
			row.TrafficMessages += total
			if total != ss.MessagesSent {
				row.TrafficConsistent = false
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintProfilerBench renders the profiler-overhead rows as a table.
func PrintProfilerBench(w io.Writer, ps []ProfilerBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\toff\ton\toverhead\tsupersteps\ttraffic\tsent\tconsistent\tanomalies")
	for _, p := range ps {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%+.2f%%\t%d\t%d\t%d\t%v\t%d\n",
			p.Workload,
			time.Duration(p.OffNanos).Round(time.Microsecond),
			time.Duration(p.OnNanos).Round(time.Microsecond),
			p.Overhead*100, p.Supersteps,
			p.TrafficMessages, p.MessagesSent, p.TrafficConsistent, p.Anomalies)
	}
	tw.Flush()
}

// CheckProfilerBench returns deviations: profiler overhead beyond
// tolerance (e.g. 0.05 = 5%), or a broken traffic invariant.
func CheckProfilerBench(ps []ProfilerBench, tolerance float64) []string {
	var problems []string
	for _, p := range ps {
		if p.Overhead > tolerance {
			problems = append(problems, fmt.Sprintf(
				"%s: profiler overhead %.2f%% exceeds %.0f%%",
				p.Workload, p.Overhead*100, tolerance*100))
		}
		if !p.TrafficConsistent {
			problems = append(problems, fmt.Sprintf(
				"%s: traffic matrices sum to %d, engine sent %d",
				p.Workload, p.TrafficMessages, p.MessagesSent))
		}
	}
	return problems
}
