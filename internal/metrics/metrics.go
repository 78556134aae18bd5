// Package metrics is Graft's engine-wide observability layer: it
// turns the per-worker superstep telemetry the pregel engine folds at
// each barrier (compute wall time, barrier waits, message traffic,
// trace-capture time, straggler/skew indicators) into three export
// surfaces:
//
//   - a live HTTP endpoint (/metrics JSON plus an expvar-style
//     /debug/vars and optional pprof), served by `graft run
//     -metrics-addr`; `graft serve` serves each job's registry under
//     /job/{id}/metrics[.json] instead,
//   - a structured JSONL event stream (`graft run -metrics-out`),
//   - a per-job metrics file persisted next to the trace, which the
//     GUI's dashboard page renders offline.
//
// A job's additive numbers are declared once, as the fields of
// pregel.Counters, which worker rows, superstep rows and job totals
// share (Counters.Add is the one fold); its job-end numbers are
// pregel.JobEnd, which pregel.Stats and JobMetrics share. What each is
// called, how it prints and where it shows is declared once, in Table
// (table.go).
//
// The hot path stays lock-free: workers record into their own padded
// slots inside the engine and the coordinator folds them at the
// barrier; this package only observes the folded SuperstepStats once
// per superstep through the JobListener interface, so its single mutex
// is contended only by HTTP readers.
package metrics

import (
	"fmt"
	"sync"

	"graft/internal/anomaly"
	"graft/internal/dfs"
	"graft/internal/pregel"
)

// JobMetrics is the full observable state of one job: identity, the
// per-superstep telemetry, the rollup, and the resilience counters.
// It is what /metrics serves and what the per-job metrics file holds.
type JobMetrics struct {
	JobID       string `json:"job_id"`
	Algorithm   string `json:"algorithm,omitempty"`
	NumWorkers  int    `json:"num_workers"`
	NumVertices int64  `json:"num_vertices"`
	NumEdges    int64  `json:"num_edges"`
	// Running is true from JobStarted until JobFinished.
	Running bool `json:"running"`
	// Supersteps has one entry per finished superstep, in order.
	Supersteps []pregel.SuperstepStats `json:"supersteps"`
	Totals     pregel.Totals           `json:"totals"`
	// Reason, Error, Partitioner and JobEnd are filled at job end;
	// Partitioner names the placement mode the job ran with ("hash" or
	// "locality"). JobEnd's Faults is the exception: while the job runs,
	// Snapshot fills it with live readings of the registered fault
	// sources.
	Reason      string `json:"reason,omitempty"`
	Error       string `json:"error,omitempty"`
	Partitioner string `json:"partitioner,omitempty"`
	pregel.JobEnd
	// DFS carries the distributed-store data-path counters (bytes
	// moved, quarantined replicas, write retries) when a DFS source
	// is registered; nil otherwise.
	DFS *dfs.ClusterStats `json:"dfs,omitempty"`
	// Anomalies is the flat feed of every anomaly event emitted over
	// the job, in superstep order (also present per superstep inside
	// Supersteps); AnomalyCounts rolls them up by kind.
	Anomalies     []anomaly.Event `json:"anomalies,omitempty"`
	AnomalyCounts map[string]int  `json:"anomaly_counts,omitempty"`
}

// TrafficTotal sums a job's captured traffic matrices: the number of
// messages whose sender→receiver lane is accounted for. The engine
// captures the matrix at every superstep, so it equals
// Totals.MessagesSent — the invariant the profiler smoke test asserts.
func (jm *JobMetrics) TrafficTotal() int64 {
	var n int64
	for _, ss := range jm.Supersteps {
		for _, row := range ss.Traffic {
			for _, v := range row {
				n += v
			}
		}
	}
	return n
}

// Registry collects one job's metrics and serves them. It implements
// pregel.JobListener; wire it as the engine listener (or behind
// core.Graft.Chain so the debugger forwards to it). All listener
// callbacks run on the engine's coordinator goroutine; the mutex only
// shields concurrent HTTP readers, never the compute hot path.
type Registry struct {
	mu      sync.Mutex
	jm      JobMetrics
	sources []pregel.FaultStatsProvider
	dfsSrcs []DFSSource
	sink    Sink
}

// DFSSource is a storage layer that exposes DFS data-path counters;
// *dfs.Cluster implements it.
type DFSSource interface {
	Stats() dfs.ClusterStats
}

// Sink receives metrics events as they happen; the JSONL exporter
// implements it. Calls arrive on the coordinator goroutine, already
// serialized.
type Sink interface {
	JobStart(jm *JobMetrics)
	Superstep(jm *JobMetrics, ss pregel.SuperstepStats)
	JobEnd(jm *JobMetrics)
}

// NewRegistry creates a registry for one job run.
func NewRegistry(jobID, algorithm string) *Registry {
	return &Registry{jm: JobMetrics{JobID: jobID, Algorithm: algorithm}}
}

// SetSink installs an event sink (e.g. the JSONL exporter). Call
// before the job starts.
func (r *Registry) SetSink(s Sink) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sink = s
}

// AddFaultSource registers a resilient storage layer whose counters
// are snapshotted into /metrics while the job is still running —
// chaos runs expose retries live, not only in the final
// result. After JobFinished the engine's folded FaultStats wins.
func (r *Registry) AddFaultSource(p pregel.FaultStatsProvider) {
	if p == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, p)
}

// AddDFSSource registers a cluster whose data-path counters (bytes
// written/read, corrupt replicas quarantined, write retries) are
// snapshotted into /metrics and the dashboard. Multiple sources fold
// together — a job may write traces and checkpoints to separate
// clusters.
func (r *Registry) AddDFSSource(s DFSSource) {
	if s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dfsSrcs = append(r.dfsSrcs, s)
}

// JobStarted implements pregel.JobListener.
func (r *Registry) JobStarted(info pregel.JobInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jm.NumWorkers = info.NumWorkers
	r.jm.NumVertices = info.NumVertices
	r.jm.NumEdges = info.NumEdges
	r.jm.Running = true
	if r.sink != nil {
		r.sink.JobStart(&r.jm)
	}
}

// SuperstepStarted implements pregel.JobListener.
func (r *Registry) SuperstepStarted(superstep int, info pregel.SuperstepInfo) {}

// SuperstepFinished implements pregel.JobListener: it folds one
// superstep's telemetry into the registry.
func (r *Registry) SuperstepFinished(superstep int, ss pregel.SuperstepStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jm.Supersteps = append(r.jm.Supersteps, ss)
	r.jm.Totals.Add(ss)
	if len(ss.Anomalies) > 0 {
		r.jm.Anomalies = append(r.jm.Anomalies, ss.Anomalies...)
		if r.jm.AnomalyCounts == nil {
			r.jm.AnomalyCounts = map[string]int{}
		}
		for _, ev := range ss.Anomalies {
			r.jm.AnomalyCounts[string(ev.Kind)]++
		}
	}
	if r.sink != nil {
		r.sink.Superstep(&r.jm, ss)
	}
}

// JobFinished implements pregel.JobListener.
func (r *Registry) JobFinished(stats *pregel.Stats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jm.Running = false
	if stats != nil {
		r.jm.JobEnd = stats.JobEnd
		r.jm.Reason = stats.Reason.String()
		r.jm.Partitioner = stats.Partitioner.String()
	}
	if err != nil {
		r.jm.Error = err.Error()
	}
	if r.sink != nil {
		r.sink.JobEnd(&r.jm)
	}
}

// Snapshot returns a deep-enough copy of the current job metrics for
// serving: the supersteps slice is copied so later appends do not race
// with encoders, and while the job runs the fault counters are
// refreshed from the registered sources.
func (r *Registry) Snapshot() JobMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.jm
	snap.Supersteps = append([]pregel.SuperstepStats(nil), r.jm.Supersteps...)
	snap.Anomalies = append([]anomaly.Event(nil), r.jm.Anomalies...)
	if len(r.jm.AnomalyCounts) > 0 {
		snap.AnomalyCounts = make(map[string]int, len(r.jm.AnomalyCounts))
		for k, v := range r.jm.AnomalyCounts {
			snap.AnomalyCounts[k] = v
		}
	}
	if snap.Running {
		var fs pregel.FaultStats
		for _, p := range r.sources {
			fs.Add(p.FaultStats())
		}
		snap.Faults = fs
	}
	if len(r.dfsSrcs) > 0 {
		var ds dfs.ClusterStats
		for _, s := range r.dfsSrcs {
			ds.Add(s.Stats())
		}
		snap.DFS = &ds
	}
	return snap
}

// String summarizes the registry for logs.
func (r *Registry) String() string {
	snap := r.Snapshot()
	return fmt.Sprintf("metrics[%s %v]", snap.JobID, Sections(&snap))
}
