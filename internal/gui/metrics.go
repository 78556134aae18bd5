package gui

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"graft/internal/anomaly"
	"graft/internal/metrics"
	"graft/internal/pregel"
)

// AttachMetricsSource mounts a per-job registry resolver: what a
// multi-job daemon (graft serve) uses so each live job's metrics page
// renders from that job's own registry. The source returns nil
// for jobs it does not know (finished jobs fall back to the persisted
// job.metrics file). Call before Handler.
func (s *Server) AttachMetricsSource(src func(jobID string) *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricsSrc = src
}

// jobMetrics resolves a job's metrics: a live per-job registry first
// (so a running job's metrics page refreshes every superstep), then the
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
// machine-readable face of the metrics page, resolved live-first like the
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

// anomalyRow is one entry of an anomaly table.
type anomalyRow struct {
	JobID            string
	Superstep        int
	Kind, Severity   string
	Critical, Warn   bool
	Where            string
	Value, Threshold string
	Detail, Action   string
}

func anomalyRows(jobID string, evs []anomaly.Event) []anomalyRow {
	rows := make([]anomalyRow, 0, len(evs))
	for _, ev := range evs {
		where := "—"
		if ev.Worker >= 0 {
			where = fmt.Sprintf("worker %d", ev.Worker)
			if ev.Peer >= 0 {
				where = fmt.Sprintf("lane %d→%d", ev.Peer, ev.Worker)
			}
		}
		rows = append(rows, anomalyRow{
			JobID:     jobID,
			Superstep: ev.Superstep,
			Kind:      string(ev.Kind),
			Severity:  string(ev.Severity),
			Critical:  ev.Severity == anomaly.SevCritical,
			Warn:      ev.Severity == anomaly.SevWarn,
			Where:     where,
			Value:     fmt.Sprintf("%.2f", ev.Value),
			Threshold: fmt.Sprintf("%.2f", ev.Threshold),
			Detail:    ev.Detail,
			Action:    ev.Action,
		})
	}
	return rows
}

// stepView is the page's drill-down into one superstep: where it sits
// among the others, its traffic and placement, its workers, its
// traffic heatmap and its anomalies.
type stepView struct {
	Superstep, Prev, Next int // Prev, Next: -1 at either end
	Sent, TrafficSum      int64
	HasTraffic            bool
	Placement             []metrics.Item
	WorkerRows            []metricsRow
	Heatmap               template.HTML
	Anomalies             []anomalyRow
}

// selectStep returns the index of the superstep ?superstep=N names, or
// of the slowest superstep (the last of a tie) when N is absent or not
// recorded; -1 when there is none.
func selectStep(steps []pregel.SuperstepStats, query string) int {
	if n, err := strconv.Atoi(query); err == nil {
		for i := range steps {
			if steps[i].Superstep == n {
				return i
			}
		}
	}
	sel := -1
	for i := range steps {
		if sel < 0 || steps[i].ComputeTime >= steps[sel].ComputeTime {
			sel = i
		}
	}
	return sel
}

func newStepView(jobID string, steps []pregel.SuperstepStats, i int) *stepView {
	ss := &steps[i]
	v := &stepView{
		Superstep: ss.Superstep, Prev: -1, Next: -1,
		Sent:       ss.MessagesSent,
		HasTraffic: len(ss.Traffic) > 0,
		Heatmap:    heatmapSVG(ss.Traffic),
		Anomalies:  anomalyRows(jobID, ss.Anomalies),
	}
	if i > 0 {
		v.Prev = steps[i-1].Superstep
	}
	if i+1 < len(steps) {
		v.Next = steps[i+1].Superstep
	}
	for _, row := range ss.Traffic {
		for _, n := range row {
			v.TrafficSum += n
		}
	}
	for _, it := range metrics.Items(ss) {
		if it.Line == "placement" && !it.Zero {
			v.Placement = append(v.Placement, it)
		}
	}
	for j := range ss.Workers {
		ws := &ss.Workers[j]
		v.WorkerRows = append(v.WorkerRows, metricsRow{ID: ws.Worker, Cells: metrics.Items(ws),
			Hot: ws.Worker == ss.Straggler && ss.ComputeSkew >= anomaly.SkewHot})
	}
	return v
}

// handleMetrics renders a job's telemetry page, GiViP-style: the job's
// summary and recoveries, the per-worker superstep timeline, the
// per-superstep table, one superstep drilled into (?superstep=N, the
// slowest by default), and the job's anomaly feed.
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

	rows := make([]metricsRow, len(jm.Supersteps))
	for i := range jm.Supersteps {
		ss := &jm.Supersteps[i]
		rows[i] = metricsRow{ID: ss.Superstep, Cells: metrics.Items(ss), Hot: ss.ComputeSkew >= anomaly.SkewHot}
	}
	var step *stepView
	selected := -1
	if i := selectStep(jm.Supersteps, r.FormValue("superstep")); i >= 0 {
		step = newStepView(jm.JobID, jm.Supersteps, i)
		selected = step.Superstep
	}

	status := "finished: " + jm.Reason
	if jm.Running {
		status = "running"
	} else if jm.Error != "" {
		status = "failed: " + jm.Error
	}
	render(w, "metrics", struct {
		page
		JobID, Algorithm, Status string
		Sections                 []metrics.Section
		Recoveries               []pregel.RecoveryEvent
		Workers                  int
		Timeline                 template.HTML
		StepHead, WorkerHead     []metrics.Item
		Rows                     []metricsRow
		Step                     *stepView
		Anomalies                []anomalyRow
		AnomalyCounts            map[string]int
	}{
		page:  page{Title: jobID + " — metrics"},
		JobID: jm.JobID, Algorithm: jm.Algorithm, Status: status,
		Sections:   metrics.Sections(&jm),
		Recoveries: jm.RecoveryEvents,
		Workers:    jm.NumWorkers,
		Timeline:   timelineSVG(jm.Supersteps, jm.NumWorkers, selected),
		// Column headers are the labels of the same rows, read off a zero value.
		StepHead:      metrics.Items(&pregel.SuperstepStats{}),
		WorkerHead:    metrics.Items(&pregel.WorkerStepStats{}),
		Rows:          rows,
		Step:          step,
		Anomalies:     anomalyRows(jm.JobID, jm.Anomalies),
		AnomalyCounts: jm.AnomalyCounts,
	})
}
