// Package metrics is Graft's engine-wide observability layer: it
// turns the per-worker superstep telemetry the pregel engine folds at
// each barrier (compute wall time, barrier waits, message traffic,
// trace-capture time, straggler/skew indicators) into one document per
// job, JobMetrics, encoded once (MarshalJobMetrics) and read in three
// places:
//
//   - job.metrics, persisted next to the trace, which the GUI's
//     metrics page renders offline,
//   - GET /metrics, live while the job runs: `graft run -metrics-addr`
//     serves it, and `graft serve` serves each job's registry under
//     /job/{id}/metrics[.json],
//   - the file `graft run -metrics-out` writes when the job ends.
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
	"sync"

	"graft/internal/anomaly"
	"graft/internal/dfs"
	"graft/internal/pregel"
)

// JobMetrics is the full observable state of one job: identity, the
// per-superstep telemetry, the rollup, and the resilience counters.
// It is what job.metrics holds, /metrics serves and -metrics-out writes.
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
	// moved, quarantined replicas, write retries) when a dfs.Cluster is
	// among the job's storage layers; nil otherwise.
	DFS *dfs.ClusterStats `json:"dfs,omitempty"`
	// Anomalies is the flat feed of every anomaly event emitted over
	// the job, in superstep order (also present per superstep inside
	// Supersteps); AnomalyCounts rolls them up by kind.
	Anomalies     []anomaly.Event `json:"anomalies,omitempty"`
	AnomalyCounts map[string]int  `json:"anomaly_counts,omitempty"`
}

// Registry serves one job's metrics. It implements
// pregel.JobListener; the graft package builds one per job and wires
// it (behind core.Graft.Chain when the job is debugged). It is a view
// of the job's Stats: its rows are Stats.PerSuperstep as the last
// barrier left them, and its totals and anomaly feed are folded from
// those rows when read, so a checkpoint restart's rewind shows in every
// view. All listener callbacks run on the engine's coordinator
// goroutine; the mutex only shields concurrent HTTP readers, never the
// compute hot path.
type Registry struct {
	mu sync.Mutex
	jm JobMetrics
	// stats is the job's, from JobStarted; only the coordinator's
	// callbacks read it.
	stats   *pregel.Stats
	sources []pregel.FaultStatsProvider
	layers  []dfs.FileSystem
	// finished is set by JobFinished: from then on Snapshot shows the
	// storage readings it froze, not the store's later traffic.
	finished bool
	// baseFaults and baseDFS are what the layers had counted when
	// SetStorage took them: a store outlives its jobs.
	baseFaults pregel.FaultStats
	baseDFS    *dfs.ClusterStats
}

// NewRegistry creates a registry for one job run.
func NewRegistry(jobID, algorithm string) *Registry {
	return &Registry{jm: JobMetrics{JobID: jobID, Algorithm: algorithm}}
}

// AddFaultSource registers a fault counter source other than a storage
// layer (the Graft session's dropped records) whose counters are
// snapshotted into /metrics while the job is still running. After
// JobFinished the job's folded Stats.Faults wins.
func (r *Registry) AddFaultSource(p pregel.FaultStatsProvider) {
	if p == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, p)
}

// SetStorage registers a job's storage layers, each once (dfs.Layers
// over its checkpoint and trace stores), before the job writes to them.
// They are the one list both storage readings use: Snapshot shows their
// fault counters live while the job runs and every dfs.Cluster's
// data-path counters in DFS, and JobFinished folds their fault counters
// into Stats.Faults. Both report what the layers counted since
// SetStorage, so a job on a store that earlier jobs used counts only
// its own; jobs running at the same time on one store still share
// their readings.
func (r *Registry) SetStorage(layers []dfs.FileSystem) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layers = layers
	r.baseFaults, r.baseDFS = readStorage(layers)
}

// JobStarted implements pregel.JobListener.
func (r *Registry) JobStarted(info pregel.JobInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats = info.Stats
	r.jm.NumWorkers = info.NumWorkers
	r.jm.NumVertices = info.NumVertices
	r.jm.NumEdges = info.NumEdges
	r.jm.Running = true
}

// SuperstepStarted implements pregel.JobListener.
func (r *Registry) SuperstepStarted(superstep int, info pregel.SuperstepInfo) {}

// SuperstepFinished implements pregel.JobListener: it publishes the
// job's rows, which the engine has just appended the superstep to.
func (r *Registry) SuperstepFinished(int, pregel.SuperstepStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publish()
}

// publish shares the job's rows with readers. The caller holds r.mu.
func (r *Registry) publish() {
	if r.stats != nil {
		r.jm.Supersteps = r.stats.PerSuperstep
	}
}

// JobFinished implements pregel.JobListener. It publishes the job's
// final rows, freezes the DFS row and folds the storage layers' fault
// counters into stats.Faults, the one place they join a job's Stats: it
// runs after Graft has committed the trace and before the listeners
// wired after the registry read the stats. It then lets go of the fault
// sources and storage layers: a registry outlives its job, and a Graft
// session reaches the job's engine and graph.
func (r *Registry) JobFinished(stats *pregel.Stats, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jm.Running = false
	r.finished = true
	r.publish()
	faults, d := r.storage()
	r.jm.DFS = d
	r.sources, r.layers = nil, nil
	if stats != nil {
		stats.Faults.Add(faults)
		r.jm.JobEnd = stats.JobEnd
		r.jm.Reason = stats.Reason.String()
		r.jm.Partitioner = stats.Partitioner.String()
	}
	if err != nil {
		r.jm.Error = err.Error()
	}
}

// readStorage sums the layers' own fault counters and every
// dfs.Cluster's data-path counters; d is nil without a Cluster.
func readStorage(layers []dfs.FileSystem) (f pregel.FaultStats, d *dfs.ClusterStats) {
	for _, l := range layers {
		if p, ok := l.(pregel.FaultStatsProvider); ok {
			f.Add(p.FaultStats())
		}
		if c, ok := l.(*dfs.Cluster); ok {
			if d == nil {
				d = &dfs.ClusterStats{}
			}
			d.Add(c.Stats())
		}
	}
	return f, d
}

// storage is the job's share of the storage readings: what the layers
// counted since SetStorage. The caller holds r.mu.
func (r *Registry) storage() (pregel.FaultStats, *dfs.ClusterStats) {
	f, d := readStorage(r.layers)
	f.Sub(r.baseFaults)
	if d != nil {
		d.Sub(*r.baseDFS)
	}
	return f, d
}

// Snapshot returns the current job metrics for serving. Its rows are
// the job's own, shared, not copied: the engine never rewrites a row it
// has published. Totals and the anomaly feed are folded from them.
// Until JobFinished the DFS row is read live from the storage layers,
// and while the job runs so are the fault counters, from them and the
// registered sources; after it both are what the job had at its end.
func (r *Registry) Snapshot() JobMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.jm
	snap.Totals = pregel.Fold(snap.Supersteps)
	for _, ss := range snap.Supersteps {
		snap.Anomalies = append(snap.Anomalies, ss.Anomalies...)
	}
	if len(snap.Anomalies) > 0 {
		snap.AnomalyCounts = map[string]int{}
		for _, ev := range snap.Anomalies {
			snap.AnomalyCounts[string(ev.Kind)]++
		}
	}
	if !r.finished {
		faults, d := r.storage()
		snap.DFS = d
		if snap.Running {
			snap.Faults = faults
			for _, p := range r.sources {
				snap.Faults.Add(p.FaultStats())
			}
		}
	}
	return snap
}
