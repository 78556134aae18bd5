package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// CaptureBench is one workload's row of the capture-pipeline
// experiment behind `graft-bench -capture`. Three cells feed it:
//
//   - undebugged: the bare engine, no debugger attached,
//   - sync: the debugger writing through a synchronous sink — records
//     encoded and written inline on the compute goroutines, the
//     legacy write path,
//   - async: the debugger writing through the async segmented
//     pipeline (per-worker queues drained by background writers,
//     flushed at superstep barriers).
//
// Both debugged cells write to the same store: a MemFS wrapped in a
// LatencyFS charging CaptureStoreLatency per file-system round trip,
// standing in for the remote DFS traces live in. Without that latency
// the comparison degenerates into racing CPU against CPU — on a
// single-core machine the channel hop alone decides it — when the
// pipeline's actual job is to keep storage round trips off the compute
// critical path: segments sealed mid-superstep commit on the drainer
// while the worker keeps computing, and barrier flushes seal all lanes
// concurrently where the synchronous path seals them one after another.
//
// Both debugged cells run the same config over the same graph, so
// their capture counts are equal; the acceptance gate checks that at
// equal counts the async run costs strictly less than the sync one.
type CaptureBench struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Reps     int    `json:"reps"`
	// StoreLatencyNanos is the simulated per-operation round-trip
	// latency of the trace store both debugged cells wrote to.
	StoreLatencyNanos int64 `json:"store_latency_ns"`
	// UndebuggedNanos is the mean runtime without the debugger.
	UndebuggedNanos int64 `json:"undebugged_ns"`
	// SyncNanos is the mean runtime with the synchronous sink.
	SyncNanos int64 `json:"sync_ns"`
	// AsyncNanos is the mean runtime with the async pipeline.
	AsyncNanos int64 `json:"async_ns"`
	// SyncOverhead / AsyncOverhead are the debug costs over the
	// undebugged baseline (cell/undebugged - 1).
	SyncOverhead  float64 `json:"sync_overhead"`
	AsyncOverhead float64 `json:"async_overhead"`
	// Speedup is SyncNanos/AsyncNanos: >1 means the async pipeline
	// beat the synchronous write path.
	Speedup float64 `json:"speedup"`
	// SyncCaptures / AsyncCaptures must be equal for the comparison
	// to be meaningful.
	SyncCaptures  int64 `json:"sync_captures"`
	AsyncCaptures int64 `json:"async_captures"`
	// FlushNanos is the total barrier-flush time of the async run:
	// the part of the write cost that stayed on the critical path.
	FlushNanos int64 `json:"flush_ns"`
	// MaxQueueDepth is the deepest any capture queue got at a barrier
	// during the async run.
	MaxQueueDepth int `json:"max_queue_depth"`
	// DroppedRecords must stay 0 under the default Block policy.
	DroppedRecords int64 `json:"dropped_records"`
	// LazySegmentReads is the number of whole segment files a cold
	// single-vertex lookup fetched: 0 since point lookups read the
	// record with a ranged read (1 in results from older builds).
	LazySegmentReads int64 `json:"lazy_segment_reads"`
}

// CaptureStoreLatency is the simulated per-operation round-trip
// latency of the capture benchmark's trace store — the order of a
// cross-rack RPC, still well below a real HDFS write pipeline, which
// pays a namenode round trip plus a replication chain per block.
const CaptureStoreLatency = 4 * time.Millisecond

// AllActiveConfig captures the full context of every active vertex
// every superstep: the heaviest capture load Graft supports, which is
// what the capture-pipeline benchmark wants to stress — under the
// Table 3 presets the write path is a sliver of the debug cost and
// sync-vs-async differences drown in run-to-run noise.
func AllActiveConfig() NamedConfig {
	return NamedConfig{
		Name:        "all-active",
		Description: "Captures every active vertex each superstep",
		Make: func() core.DebugConfig {
			return core.DebugConfig{CaptureAllActive: true, CaptureExceptions: true}
		},
	}
}

// captureRunResult carries one debugged repetition's measurements.
// The repetition's store — the whole trace, held in memory — is
// deliberately not part of it: it must become garbage before the next
// cell runs, so no cell pays garbage-marking for its predecessor's
// trace.
type captureRunResult struct {
	elapsed  time.Duration
	captures int64
	dropped  int64
	stats    *pregel.Stats
	// lazyReads is the cold single-vertex lookup's segment-read count,
	// probed when the caller asked for it.
	lazyReads int64
}

// captureRun executes one debugged repetition of a workload with the
// given sink options, probing the lazy-lookup cost before releasing
// the store when probe is set.
func captureRun(wl Workload, base *pregel.Graph, cfg NamedConfig, traceOpts []trace.Option, rep int, probe bool) (captureRunResult, error) {
	var res captureRunResult
	runtime.GC()
	g := base.Clone()
	alg := wl.Algorithm()
	engCfg := pregel.Config{
		NumWorkers:    wl.Workers,
		Combiner:      alg.Combiner,
		Master:        alg.Master,
		MaxSupersteps: alg.MaxSupersteps,
	}
	store := trace.NewStore(dfs.NewLatencyFS(dfs.NewMemFS(), CaptureStoreLatency), "bench")
	jobID := fmt.Sprintf("%s-capture-%d", wl.Label, rep)
	dc := cfg.Make()
	session, err := core.Attach(store, core.Options{
		JobID:      jobID,
		Algorithm:  alg.Name,
		NumWorkers: wl.Workers,
		Trace:      traceOpts,
	}, g, dc)
	if err != nil {
		return res, err
	}
	comp := session.Instrument(alg.Compute)
	engCfg.Master = session.InstrumentMaster(engCfg.Master)
	engCfg.Listener = session
	job := pregel.NewJob(g, comp, engCfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	start := time.Now()
	stats, err := job.Run()
	if err != nil {
		return res, err
	}
	res.elapsed = time.Since(start)
	if err := session.Err(); err != nil {
		return res, fmt.Errorf("trace write: %w", err)
	}
	res.stats = stats
	res.captures = session.Captures()
	res.dropped = session.DroppedRecords()
	if probe {
		res.lazyReads, err = lazyLookupCost(store, jobID)
		if err != nil {
			return res, fmt.Errorf("lazy lookup: %w", err)
		}
	}
	return res, nil
}

// fastest returns the minimum element: machine noise on a shared host
// is strictly additive, so the fastest repetition is the least
// contaminated estimate of a cell's true cost.
func fastest(times []time.Duration) time.Duration {
	if len(times) == 0 {
		return 0
	}
	min := times[0]
	for _, t := range times[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// lazyLookupCost reopens a trace cold and fetches one captured vertex
// through the segment index, returning how many whole segment files
// the lookup fetched. Misses while probing for the vertex's superstep
// are index-only and cost nothing.
func lazyLookupCost(store *trace.Store, jobID string) (int64, error) {
	r, err := store.OpenReader(jobID)
	if err != nil {
		return 0, err
	}
	ids := r.CapturedVertexIDs() // answered from the index alone
	steps := r.Supersteps()
	if len(ids) == 0 || len(steps) == 0 {
		return 0, nil
	}
	id := ids[len(ids)/2]
	for _, s := range steps {
		if r.Capture(s, id) != nil {
			return r.SegmentReads(), r.Err()
		}
	}
	return 0, fmt.Errorf("vertex %d not found at any superstep", id)
}

// RunCaptureBench measures what the capture pipeline costs: for each
// workload it compares the undebugged engine, the debugger with a
// synchronous sink, and the debugger with the async segmented
// pipeline, all under the same debug config.
func RunCaptureBench(workloads []Workload, debug NamedConfig, opts Options) ([]CaptureBench, error) {
	if opts.Reps <= 0 {
		opts.Reps = 5
	}
	var out []CaptureBench
	syncOpts := []trace.Option{trace.WithSynchronous()}
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		baseline, _, _, err := metricsCell(wl, base, NamedConfig{Name: "no-debug"}, false, opts)
		if err != nil {
			return nil, fmt.Errorf("harness: %s undebugged: %w", wl.Label, err)
		}
		// The sync and async repetitions are interleaved so slow drift in
		// machine load hits both cells equally, with the order inside
		// each repetition alternating so neither cell always runs on the
		// process state its sibling left behind, and summarized by the
		// fastest repetition: noise on a shared host only ever adds
		// time, so the minimum is the cleanest estimate of each cell.
		var syncTimes, asyncTimes []time.Duration
		var sync, async captureRunResult
		for rep := -1; rep < opts.Reps; rep++ {
			var s, a captureRunResult
			var err error
			runSync := func() error {
				s, err = captureRun(wl, base, debug, syncOpts, rep, false)
				if err != nil {
					return fmt.Errorf("harness: %s sync: %w", wl.Label, err)
				}
				return nil
			}
			runAsync := func() error {
				a, err = captureRun(wl, base, debug, nil, rep, true)
				if err != nil {
					return fmt.Errorf("harness: %s async: %w", wl.Label, err)
				}
				return nil
			}
			first, second := runSync, runAsync
			if rep%2 != 0 {
				first, second = runAsync, runSync
			}
			if err := first(); err != nil {
				return nil, err
			}
			if err := second(); err != nil {
				return nil, err
			}
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "  %s rep %2d: sync=%v async=%v\n", wl.Label, rep, s.elapsed, a.elapsed)
			}
			if rep < 0 {
				continue // warmup
			}
			syncTimes = append(syncTimes, s.elapsed)
			asyncTimes = append(asyncTimes, a.elapsed)
			sync, async = s, a
		}
		syncBest, asyncBest := fastest(syncTimes), fastest(asyncTimes)
		row := CaptureBench{
			Workload:          wl.Label,
			Config:            debug.Name,
			Reps:              opts.Reps,
			StoreLatencyNanos: CaptureStoreLatency.Nanoseconds(),
			UndebuggedNanos:   baseline.Nanoseconds(),
			SyncNanos:         syncBest.Nanoseconds(),
			AsyncNanos:        asyncBest.Nanoseconds(),
			SyncCaptures:      sync.captures,
			AsyncCaptures:     async.captures,
			DroppedRecords:    async.dropped,
			LazySegmentReads:  async.lazyReads,
		}
		if baseline > 0 {
			row.SyncOverhead = float64(syncBest)/float64(baseline) - 1
			row.AsyncOverhead = float64(asyncBest)/float64(baseline) - 1
		}
		if asyncBest > 0 {
			row.Speedup = float64(syncBest) / float64(asyncBest)
		}
		if async.stats != nil {
			for _, ss := range async.stats.PerSuperstep {
				row.FlushNanos += ss.FlushTime.Nanoseconds()
				if ss.CaptureQueueDepth > row.MaxQueueDepth {
					row.MaxQueueDepth = ss.CaptureQueueDepth
				}
			}
		}
		out = append(out, row)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-10s undebugged=%8.2fms sync=%8.2fms async=%8.2fms speedup=%.2fx\n",
				wl.Label, float64(baseline.Microseconds())/1000,
				float64(syncBest.Microseconds())/1000,
				float64(asyncBest.Microseconds())/1000, row.Speedup)
		}
	}
	return out, nil
}

// PrintCaptureBench renders the capture-pipeline rows as a table.
func PrintCaptureBench(w io.Writer, cs []CaptureBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tundebugged\tsync\tasync\tsync-ovh\tasync-ovh\tspeedup\tcaptures\tflush\tmax-queue\tlazy-reads")
	for _, c := range cs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%+.2f%%\t%.2fx\t%d\t%s\t%d\t%d\n",
			c.Workload,
			time.Duration(c.UndebuggedNanos).Round(time.Microsecond),
			time.Duration(c.SyncNanos).Round(time.Microsecond),
			time.Duration(c.AsyncNanos).Round(time.Microsecond),
			c.SyncOverhead*100, c.AsyncOverhead*100, c.Speedup,
			c.AsyncCaptures,
			time.Duration(c.FlushNanos).Round(time.Microsecond),
			c.MaxQueueDepth, c.LazySegmentReads)
	}
	tw.Flush()
}

// WriteCaptureBenchJSON writes the rows as indented JSON (the
// BENCH_capture.json artifact).
func WriteCaptureBenchJSON(w io.Writer, cs []CaptureBench) error {
	b, err := json.MarshalIndent(cs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CheckCaptureBench verifies the acceptance claims: equal capture
// counts between the sync and async cells, async debug overhead
// strictly below the synchronous baseline, nothing dropped under the
// Block policy, and cold single-vertex lookups reading at most one
// segment.
func CheckCaptureBench(cs []CaptureBench) []string {
	var problems []string
	for _, c := range cs {
		if c.SyncCaptures != c.AsyncCaptures {
			problems = append(problems, fmt.Sprintf(
				"%s: capture counts differ (sync=%d async=%d)", c.Workload, c.SyncCaptures, c.AsyncCaptures))
		}
		if c.AsyncNanos >= c.SyncNanos {
			problems = append(problems, fmt.Sprintf(
				"%s: async pipeline (%v) not faster than synchronous writes (%v)",
				c.Workload, time.Duration(c.AsyncNanos), time.Duration(c.SyncNanos)))
		}
		if c.DroppedRecords > 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: %d records dropped under Block backpressure", c.Workload, c.DroppedRecords))
		}
		if c.LazySegmentReads > 1 {
			problems = append(problems, fmt.Sprintf(
				"%s: cold single-vertex lookup read %d segments, want at most 1", c.Workload, c.LazySegmentReads))
		}
	}
	return problems
}
