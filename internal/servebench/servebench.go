// Package servebench is graft-bench's -serve experiment. It lives apart
// from internal/harness because it drives the root graft package's
// Session, whose own benchmarks import the harness.
package servebench

import (
	"context"
	"fmt"
	"io"
	"maps"
	"text/tabwriter"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/harness"
	"graft/internal/trace"
)

// Serve benchmark geometry. The jobs are debugged PageRank runs whose
// trace segments land on a store charging ServeBenchStoreLatency per
// file-system round trip — the regime `graft serve` exists for, where
// a job's wall time is dominated by trace I/O against the shared DFS
// and concurrent jobs overlap those waits. One worker per job keeps
// the comparison honest on small machines: the sequential session is
// not starved of CPU, it is starved of overlap.
const (
	ServeBenchJobs         = 4
	ServeBenchWorkers      = 1
	ServeBenchSupersteps   = 8
	ServeBenchStoreLatency = 2 * time.Millisecond
	ServeBenchSegmentSize  = 4 << 10
)

// ServeBench is the one-row result behind `graft-bench -serve`: the
// same N debugged jobs run through a Session once with one concurrency
// slot (the old graft.Run regime, jobs back to back) and once with N
// slots (the `graft serve` regime), against equally slow stores.
type ServeBench struct {
	Jobs       int   `json:"jobs"`
	Workers    int   `json:"workers_per_job"`
	Supersteps int   `json:"supersteps"`
	Vertices   int   `json:"vertices"`
	Reps       int   `json:"reps"`
	LatencyNS  int64 `json:"store_latency_ns"`
	// SequentialNanos / ConcurrentNanos are each mode's fastest
	// repetition of the whole batch, submit of the first job to Wait
	// of the last.
	SequentialNanos int64 `json:"sequential_ns"`
	ConcurrentNanos int64 `json:"concurrent_ns"`
	// SequentialJobsPerSec / ConcurrentJobsPerSec are the aggregate
	// throughputs those times imply.
	SequentialJobsPerSec float64 `json:"sequential_jobs_per_sec"`
	ConcurrentJobsPerSec float64 `json:"concurrent_jobs_per_sec"`
	// Speedup is sequential/concurrent aggregate throughput: >1 means
	// the shared session amortized the store latency.
	Speedup float64 `json:"speedup"`
	// DigestsMatch reports that every job produced the same trace
	// digest in both modes — concurrency changed the schedule, not
	// the traces.
	DigestsMatch bool `json:"digests_match"`
}

// Serve is `graft-bench -serve`.
var Serve = harness.NewExperiment("serve",
	fmt.Sprintf("Serving mode: %d debugged PageRank jobs back to back vs sharing a concurrent session (%d worker(s)/job, store latency %v/op)",
		ServeBenchJobs, ServeBenchWorkers, ServeBenchStoreLatency),
	func(p harness.Params) (*ServeBench, error) { return RunServeBench(p.Scale, p.Options) },
	PrintServeBench, CheckServeBench)

// serveBenchRun executes the N-job batch through one session with the
// given number of concurrency slots and returns the batch wall time
// plus each job's trace digest.
func serveBenchRun(base *graft.Graph, slots int, seed int64) (time.Duration, map[string]string, error) {
	store := graft.NewStore(&dfs.LatencyFS{FS: graft.NewMemFS(), Delay: ServeBenchStoreLatency}, "traces")
	sess, err := graft.NewSession(graft.SessionConfig{
		Store:             store,
		MaxConcurrentJobs: slots,
	})
	if err != nil {
		return 0, nil, err
	}
	defer sess.Close()

	start := time.Now()
	jobs := make([]*graft.Job, ServeBenchJobs)
	for i := range jobs {
		jobs[i], err = sess.SubmitAlgorithm(context.Background(), base.Clone(),
			algorithms.NewPageRank(ServeBenchSupersteps, 0.85), graft.RunOptions{
				JobID: fmt.Sprintf("job-%d", i),
				Debug: &graft.DebugConfig{
					NumRandomCaptures: 30,
					CaptureNeighbors:  true,
					RandomSeed:        seed + int64(i),
					CaptureExceptions: true,
				},
				Trace:  []graft.TraceOption{graft.WithSegmentSize(ServeBenchSegmentSize)},
				Engine: graft.EngineConfig{NumWorkers: ServeBenchWorkers},
			})
		if err != nil {
			return 0, nil, err
		}
	}
	for _, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			return 0, nil, fmt.Errorf("job %s: %w", j.ID(), err)
		}
	}
	elapsed := time.Since(start)

	digests := make(map[string]string, len(jobs))
	for _, j := range jobs {
		v, err := graft.OpenTrace(store, j.ID())
		if err != nil {
			return 0, nil, fmt.Errorf("open %s: %w", j.ID(), err)
		}
		digests[j.ID()] = trace.Digest(v)
	}
	return elapsed, digests, nil
}

// RunServeBench measures the serving-mode win: N debugged jobs back
// to back versus the same N jobs sharing a session with N slots.
func RunServeBench(scale float64, opts harness.Options) (*ServeBench, error) {
	base := graphgen.WebGraph(max(int(30_000_000*scale), 1000), 8, opts.Seed)
	row := &ServeBench{
		Jobs:         ServeBenchJobs,
		Workers:      ServeBenchWorkers,
		Supersteps:   ServeBenchSupersteps,
		Vertices:     int(base.NumVertices()),
		LatencyNS:    ServeBenchStoreLatency.Nanoseconds(),
		DigestsMatch: true,
	}
	var refDigests map[string]string // of the first batch; every later one must agree
	cell := func(name string, slots int) harness.Cell {
		return harness.Cell{Name: name, Run: func() (time.Duration, error) {
			t, digests, err := serveBenchRun(base, slots, opts.Seed)
			if refDigests == nil {
				refDigests = digests
			}
			row.DigestsMatch = row.DigestsMatch && maps.Equal(refDigests, digests)
			return t, err
		}}
	}
	sum, err := harness.RunPaired(harness.Pair{
		Name: "serve", A: cell("sequential", 1), B: cell("concurrent", ServeBenchJobs),
		Blocks: opts.Reps, Progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	row.Reps = sum.Blocks
	row.SequentialNanos = sum.FastestA.Nanoseconds()
	row.ConcurrentNanos = sum.FastestB.Nanoseconds()
	if sum.FastestA > 0 {
		row.SequentialJobsPerSec = float64(ServeBenchJobs) / sum.FastestA.Seconds()
	}
	if sum.FastestB > 0 {
		row.ConcurrentJobsPerSec = float64(ServeBenchJobs) / sum.FastestB.Seconds()
		row.Speedup = float64(sum.FastestA) / float64(sum.FastestB)
	}
	return row, nil
}

// PrintServeBench renders the row as a table.
func PrintServeBench(w io.Writer, r *ServeBench) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "jobs\tworkers/job\tsupersteps\tsequential\tconcurrent\tseq jobs/s\tconc jobs/s\tspeedup\tdigests")
	match := "match"
	if !r.DigestsMatch {
		match = "DIVERGED"
	}
	fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\t%.2f\t%.2f\t%.2fx\t%s\n",
		r.Jobs, r.Workers, r.Supersteps,
		time.Duration(r.SequentialNanos).Round(time.Microsecond),
		time.Duration(r.ConcurrentNanos).Round(time.Microsecond),
		r.SequentialJobsPerSec, r.ConcurrentJobsPerSec, r.Speedup, match)
	tw.Flush()
}

// CheckServeBench verifies the serving-mode claims: concurrent jobs
// against the shared store deliver at least 1.3x the aggregate
// throughput of the same jobs run back to back, without perturbing a
// single trace digest.
func CheckServeBench(r *ServeBench) []string {
	var problems []string
	if r.Speedup < 1.3 {
		problems = append(problems, fmt.Sprintf(
			"concurrent aggregate throughput only %.2fx sequential (want >= 1.3x)", r.Speedup))
	}
	if !r.DigestsMatch {
		problems = append(problems, "per-job trace digests diverged between sequential and concurrent runs")
	}
	return problems
}
