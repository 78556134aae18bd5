package gui

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graft/internal/metrics"
	"graft/internal/pregel"
)

// AttachMetricsSource mounts a per-job registry resolver: what a
// multi-job daemon (graft serve) uses so each live job's dashboard and
// profiler render from that job's own registry. The source returns nil
// for jobs it does not know (finished jobs fall back to the persisted
// job.metrics file). Call before Handler.
func (s *Server) AttachMetricsSource(src func(jobID string) *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsSrc = src
}

// jobMetrics resolves a job's metrics: a live per-job registry first
// (so a running job's dashboard refreshes every superstep), then the
// persisted job.metrics.
func (s *Server) jobMetrics(jobID string) (metrics.JobMetrics, error) {
	s.mu.Lock()
	src := s.metricsSrc
	s.mu.Unlock()
	if src != nil {
		if reg := src(jobID); reg != nil {
			return reg.Snapshot(), nil
		}
	}
	return metrics.ReadJobMetrics(s.store.FS, s.store.MetricsPath(jobID))
}

// handleMetricsJSON serves one job's metrics snapshot as JSON — the
// machine-readable face of the dashboard, resolved live-first like the
// HTML page (what the serve daemon's per-job /metrics.json is).
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	jm, err := s.jobMetrics(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	writeJSON(w, jm)
}

// migrationSummary renders a superstep's rebalancer migrations for the
// dashboard table.
func migrationSummary(ms []pregel.MigrationEvent) string {
	if len(ms) == 0 {
		return "—"
	}
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%d→%d: %d", m.From, m.To, m.Vertices)
	}
	return strings.Join(parts, ", ")
}

// partitionSizesSummary renders the per-worker vertex counts the job
// finished with ("w0: 120, w1: 118, ..."), or "—" when the job did not
// record them.
func partitionSizesSummary(sizes []int64) string {
	if len(sizes) == 0 {
		return "—"
	}
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = fmt.Sprintf("w%d: %d", i, n)
	}
	return strings.Join(parts, ", ")
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// skewHot is the straggler threshold: a worker running 1.5x the mean
// marks the superstep as skewed in the dashboard.
const skewHot = 1.5

type metricsStepRow struct {
	Superstep                 int
	Vertices, Active          int64
	Sent, Combined, Received  int64
	Compute, Barrier, Capture string
	Flush                     string
	QueueDepth                int
	ComputeSkew, MessageSkew  string
	Straggler                 string
	Hot                       bool
	// Migrated summarizes the rebalancer's migrations at this barrier
	// ("from→to: n vertices"), or "—" when none happened.
	Migrated string
}

type metricsWorkerRow struct {
	Worker                    int
	Vertices, Sent, Received  int64
	Compute, Barrier, Capture string
	Straggler                 bool
}

type metricsRecoveryRow struct {
	Superstep, FromCheckpoint int
	Mode, Partitions          string
	StepsReplayed             int
	MsgsReplayed              int64
	Duration                  string
}

// recoveryRows renders the per-recovery breakdown for the dashboard:
// which partitions rolled back, the checkpoint they restarted from and
// how much confined replay it took to catch them back up.
func recoveryRows(evs []pregel.RecoveryEvent) []metricsRecoveryRow {
	rows := make([]metricsRecoveryRow, 0, len(evs))
	for _, ev := range evs {
		parts := "all"
		if len(ev.Partitions) > 0 {
			strs := make([]string, len(ev.Partitions))
			for i, p := range ev.Partitions {
				strs[i] = strconv.Itoa(p)
			}
			parts = strings.Join(strs, ", ")
		}
		rows = append(rows, metricsRecoveryRow{
			Superstep:      ev.Superstep,
			FromCheckpoint: ev.CheckpointSuperstep,
			Mode:           ev.Mode,
			Partitions:     parts,
			StepsReplayed:  ev.SuperstepsReplayed,
			MsgsReplayed:   ev.MessagesReplayed,
			Duration:       ms(ev.Duration) + " ms",
		})
	}
	return rows
}

// dfsSummary renders the distributed-store data-path counters for the
// dashboard's DFS row ("" when no DFS source was registered).
func dfsSummary(jm metrics.JobMetrics) string {
	if jm.DFS == nil {
		return ""
	}
	return jm.DFS.String()
}

// handleMetrics renders the GiViP-style per-job dashboard: job-level
// phase totals, sparklines over supersteps, the per-superstep
// timing/skew table, and the per-worker breakdown of one superstep.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	jm, err := s.jobMetrics(jobID)
	if errors.Is(err, metrics.ErrNoMetrics) {
		renderPage(w, fmt.Sprintf("%s — metrics", jobID), template.HTML(
			`<p class="muted">No metrics were recorded for this job. Re-run with the metrics `+
				`layer enabled (it is on by default for graft run) to populate this dashboard.</p>`))
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	var rows []metricsStepRow
	computeMs := make([]float64, 0, len(jm.Supersteps))
	sentVals := make([]float64, 0, len(jm.Supersteps))
	skewVals := make([]float64, 0, len(jm.Supersteps))
	for _, ss := range jm.Supersteps {
		straggler := "—"
		if ss.Straggler >= 0 {
			straggler = strconv.Itoa(ss.Straggler)
		}
		rows = append(rows, metricsStepRow{
			Superstep: ss.Superstep,
			Vertices:  ss.VerticesProcessed, Active: ss.ActiveAtEnd,
			Sent: ss.MessagesSent, Combined: ss.MessagesCombined, Received: ss.MessagesReceived,
			Compute: ms(ss.ComputeTime), Barrier: ms(ss.BarrierWait), Capture: ms(ss.CaptureTime),
			Flush:       ms(ss.FlushTime),
			QueueDepth:  ss.CaptureQueueDepth,
			ComputeSkew: fmt.Sprintf("%.2f", ss.ComputeSkew),
			MessageSkew: fmt.Sprintf("%.2f", ss.MessageSkew),
			Straggler:   straggler,
			Hot:         ss.ComputeSkew >= skewHot,
			Migrated:    migrationSummary(ss.Migrations),
		})
		computeMs = append(computeMs, float64(ss.ComputeTime.Microseconds())/1000)
		sentVals = append(sentVals, float64(ss.MessagesSent))
		skewVals = append(skewVals, ss.ComputeSkew)
	}

	// Per-worker drill-down for ?superstep=N (default: the slowest).
	sel := -1
	if v := r.FormValue("superstep"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			sel = n
		}
	}
	if sel < 0 {
		var worst time.Duration
		for _, ss := range jm.Supersteps {
			if ss.ComputeTime >= worst {
				worst, sel = ss.ComputeTime, ss.Superstep
			}
		}
	}
	var workerRows []metricsWorkerRow
	for _, ss := range jm.Supersteps {
		if ss.Superstep != sel {
			continue
		}
		for _, ws := range ss.Workers {
			workerRows = append(workerRows, metricsWorkerRow{
				Worker:   ws.Worker,
				Vertices: ws.VerticesProcessed, Sent: ws.MessagesSent, Received: ws.MessagesReceived,
				Compute: ms(ws.ComputeTime), Barrier: ms(ws.BarrierWait), Capture: ms(ws.CaptureTime),
				Straggler: ws.Worker == ss.Straggler && ss.ComputeSkew >= skewHot,
			})
		}
	}

	status := "finished: " + jm.Reason
	if jm.Running {
		status = "running"
	} else if jm.Error != "" {
		status = "failed: " + jm.Error
	}
	overhead := jm.Totals.CaptureOverhead()
	data := struct {
		JobID, Algorithm, Status           string
		Workers                            int
		Runtime, Recovery                  string
		ComputeTotal, BarrierTotal         string
		CaptureTotal, CaptureOverhead      string
		FlushTotal                         string
		MaxCaptureQueue                    int
		MaxComputeSkew, MaxMessageSkew     string
		Rebalances                         int
		Migrated                           int64
		HasMigrations                      bool
		Partitioner                        string
		PartitionSizes                     string
		EdgeCut                            int64
		LocalRatio                         string
		HasPlacement                       bool
		Subgraphs, InternalIters           int64
		HasSubgraphs                       bool
		Sent, Combined, Received, Vertices int64
		Recoveries                         int
		Faults                             string
		HasFaults                          bool
		OutboxLog                          string
		HasOutboxLog                       bool
		RecoveryRows                       []metricsRecoveryRow
		DFS                                string
		HasDFS                             bool
		ComputeSpark, SentSpark, SkewSpark template.HTML
		Rows                               []metricsStepRow
		SelectedSuperstep                  int
		WorkerRows                         []metricsWorkerRow
	}{
		JobID: jm.JobID, Algorithm: jm.Algorithm, Status: status,
		Workers:         jm.NumWorkers,
		Runtime:         ms(time.Duration(jm.RuntimeNanos)) + " ms",
		Recovery:        ms(time.Duration(jm.RecoveryNanos)) + " ms",
		ComputeTotal:    ms(time.Duration(jm.Totals.ComputeNanos)) + " ms",
		BarrierTotal:    ms(time.Duration(jm.Totals.BarrierNanos)) + " ms",
		CaptureTotal:    ms(time.Duration(jm.Totals.CaptureNanos)) + " ms",
		CaptureOverhead: fmt.Sprintf("%.2f%%", overhead*100),
		FlushTotal:      ms(time.Duration(jm.Totals.FlushNanos)) + " ms",
		MaxCaptureQueue: jm.Totals.MaxCaptureQueueDepth,
		MaxComputeSkew:  fmt.Sprintf("%.2f", jm.Totals.MaxComputeSkew),
		MaxMessageSkew:  fmt.Sprintf("%.2f", jm.Totals.MaxMessageSkew),
		Rebalances:      jm.Totals.Rebalances,
		Migrated:        jm.Totals.VerticesMigrated,
		HasMigrations:   jm.Totals.Rebalances > 0,
		Partitioner:     jm.Partitioner,
		PartitionSizes:  partitionSizesSummary(jm.PartitionSizes),
		EdgeCut:         jm.EdgeCut,
		LocalRatio:      fmt.Sprintf("%.1f%%", jm.Totals.LocalMessageRatio(jm.TrafficTotal())*100),
		HasPlacement:    jm.Partitioner != "",
		Subgraphs:       jm.Totals.SubgraphsComputed,
		InternalIters:   jm.Totals.InternalIterations,
		HasSubgraphs:    jm.Totals.SubgraphsComputed > 0,
		Sent:            jm.Totals.MessagesSent, Combined: jm.Totals.MessagesCombined,
		Received: jm.Totals.MessagesReceived, Vertices: jm.Totals.VerticesProcessed,
		Recoveries:        jm.Recoveries,
		Faults:            jm.Faults.String(),
		HasFaults:         jm.Faults.Any() || jm.Recoveries > 0,
		OutboxLog:         fmt.Sprintf("%d messages (%d bytes)", jm.MessagesLogged, jm.BytesLogged),
		HasOutboxLog:      jm.MessagesLogged > 0,
		RecoveryRows:      recoveryRows(jm.RecoveryEvents),
		DFS:               dfsSummary(jm),
		HasDFS:            jm.DFS != nil && jm.DFS.Any(),
		ComputeSpark:      sparklineSVG(computeMs, 260, 48, "#246"),
		SentSpark:         sparklineSVG(sentVals, 260, 48, "#2a2"),
		SkewSpark:         sparklineSVG(skewVals, 260, 48, "#c33"),
		Rows:              rows,
		SelectedSuperstep: sel,
		WorkerRows:        workerRows,
	}
	body, err := renderSub(metricsTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — metrics", jobID), body)
}
