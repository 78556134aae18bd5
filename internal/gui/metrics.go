package gui

import (
	"errors"
	"html/template"
	"net/http"
	"strconv"
	"time"

	"graft/internal/anomaly"
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

// metricsRow is one line of the per-superstep or per-worker table: the
// metric table's cells for it and whether it is flagged (a skewed
// superstep, the straggling worker).
type metricsRow struct {
	ID    int
	Cells []metrics.Item
	Hot   bool
}

// handleMetrics renders the GiViP-style per-job dashboard: job-level
// phase totals, sparklines over supersteps, the per-superstep
// timing/skew table, and the per-worker breakdown of one superstep.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	jm, err := s.jobMetrics(jobID)
	if errors.Is(err, metrics.ErrNoMetrics) {
		render(w, "message", struct {
			page
			Message string
		}{page{Title: jobID + " — metrics"}, "No metrics were recorded for this job: its trace predates job.metrics."})
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	var rows, workerRows []metricsRow
	computeMs := make([]float64, 0, len(jm.Supersteps))
	sentVals := make([]float64, 0, len(jm.Supersteps))
	skewVals := make([]float64, 0, len(jm.Supersteps))
	for i := range jm.Supersteps {
		ss := &jm.Supersteps[i]
		rows = append(rows, metricsRow{ID: ss.Superstep, Cells: metrics.Items(ss), Hot: ss.ComputeSkew >= anomaly.SkewHot})
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
	for _, ss := range jm.Supersteps {
		if ss.Superstep != sel {
			continue
		}
		for i := range ss.Workers {
			ws := &ss.Workers[i]
			workerRows = append(workerRows, metricsRow{ID: ws.Worker, Cells: metrics.Items(ws),
				Hot: ws.Worker == ss.Straggler && ss.ComputeSkew >= anomaly.SkewHot})
		}
	}

	status := "finished: " + jm.Reason
	if jm.Running {
		status = "running"
	} else if jm.Error != "" {
		status = "failed: " + jm.Error
	}
	data := struct {
		page
		JobID, Algorithm, Status           string
		Sections                           []metrics.Section
		Recoveries                         []pregel.RecoveryEvent
		ComputeSpark, SentSpark, SkewSpark template.HTML
		StepHead, WorkerHead               []metrics.Item
		Rows, WorkerRows                   []metricsRow
		SelectedSuperstep                  int
	}{
		page:  page{Title: jobID + " — metrics"},
		JobID: jm.JobID, Algorithm: jm.Algorithm, Status: status,
		Sections:     metrics.Sections(&jm),
		Recoveries:   jm.RecoveryEvents,
		ComputeSpark: sparklineSVG(computeMs, 260, 48, "#246"),
		SentSpark:    sparklineSVG(sentVals, 260, 48, "#2a2"),
		SkewSpark:    sparklineSVG(skewVals, 260, 48, "#c33"),
		// Column headers are the labels of the same rows, read off a zero value.
		StepHead:          metrics.Items(&pregel.SuperstepStats{}),
		WorkerHead:        metrics.Items(&pregel.WorkerStepStats{}),
		Rows:              rows,
		SelectedSuperstep: sel,
		WorkerRows:        workerRows,
	}
	render(w, "metrics", data)
}
