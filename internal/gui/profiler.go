package gui

import (
	"errors"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"graft/internal/anomaly"
	"graft/internal/metrics"
	"graft/internal/pregel"
)

// The profiler page is the GiViP-style "where did the time and the
// messages go" view: a superstep timeline with one lane per worker
// (compute / barrier / capture stacked), the inter-partition traffic
// heatmap for one superstep with a scrubber, and the anomaly feed the
// detector engine emitted at each barrier.

// timelineColors are the stacked-segment fills, in draw order.
var timelineColors = [3]string{"#246", "#e90", "#999"} // compute, barrier, capture

// timelineSVG renders the superstep timeline: one horizontal lane per
// worker, one column per superstep. Each cell is a stacked bar of the
// worker's compute, barrier-wait and capture time, scaled against the
// busiest worker-superstep so relative load (and stragglers) read at a
// glance. Column headers link to the profiler page at that superstep;
// the selected column is tinted.
func timelineSVG(steps []pregel.SuperstepStats, workers, selected int) template.HTML {
	if len(steps) == 0 || workers == 0 {
		return template.HTML(`<p class="muted">No superstep telemetry recorded.</p>`)
	}
	cellTotal := func(ws pregel.WorkerStepStats) time.Duration {
		return ws.ComputeTime + ws.BarrierWait + ws.CaptureTime
	}
	var max time.Duration
	for _, ss := range steps {
		for _, ws := range ss.Workers {
			if t := cellTotal(ws); t > max {
				max = t
			}
		}
	}
	if max == 0 {
		max = 1
	}

	const laneH, labelW, headerH = 22.0, 70.0, 18.0
	colW := 900.0 / float64(len(steps))
	if colW > 110 {
		colW = 110
	}
	if colW < 14 {
		colW = 14
	}
	w := labelW + colW*float64(len(steps)) + 10
	h := headerH + laneH*float64(workers) + 8

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" style="background:white;border:1px solid #ccc">`,
		w, h, w, h)
	// Lane labels.
	for wk := 0; wk < workers; wk++ {
		y := headerH + laneH*float64(wk)
		fmt.Fprintf(&b, `<text x="4" y="%.1f" font-size="10" fill="#555">worker %d</text>`, y+laneH/2+3, wk)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee"/>`, labelW, y, w-4, y)
	}
	for i, ss := range steps {
		x := labelW + colW*float64(i)
		if ss.Superstep == selected {
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#fffbe0"/>`,
				x, headerH-2, colW, laneH*float64(workers)+4)
		}
		fmt.Fprintf(&b, `<a href="?superstep=%d"><text x="%.1f" y="12" font-size="9" text-anchor="middle" fill="#246">%d</text></a>`,
			ss.Superstep, x+colW/2, ss.Superstep)
		for _, ws := range ss.Workers {
			if ws.Worker < 0 || ws.Worker >= workers {
				continue
			}
			y := headerH + laneH*float64(ws.Worker) + 3
			segs := [3]time.Duration{ws.ComputeTime, ws.BarrierWait, ws.CaptureTime}
			sx := x + 1
			for si, d := range segs {
				sw := (colW - 2) * float64(d) / float64(max)
				if sw <= 0 {
					continue
				}
				fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>superstep %d worker %d: compute %v, barrier %v, capture %v</title></rect>`,
					sx, y, sw, laneH-6, timelineColors[si],
					ss.Superstep, ws.Worker, ws.ComputeTime, ws.BarrierWait, ws.CaptureTime)
				sx += sw
			}
		}
	}
	fmt.Fprint(&b, `</svg>`)
	return template.HTML(b.String())
}

// heatmapSVG renders one superstep's numWorkers×numWorkers traffic
// matrix: rows are senders, columns are receivers, cells shaded by
// message volume relative to the hottest lane (white = idle). Small
// matrices also print the counts in-cell; every cell carries a tooltip.
func heatmapSVG(traffic [][]int64) template.HTML {
	n := len(traffic)
	if n == 0 {
		return template.HTML(`<p class="muted">No traffic matrix was captured for this superstep (the anomaly layer must be enabled).</p>`)
	}
	var max int64
	for _, row := range traffic {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	cell := 480.0 / float64(n)
	if cell > 56 {
		cell = 56
	}
	if cell < 10 {
		cell = 10
	}
	const labelW, labelH = 64.0, 16.0
	w := labelW + cell*float64(n) + 8
	h := labelH + cell*float64(n) + 8

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" style="background:white;border:1px solid #ccc">`,
		w, h, w, h)
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, `<text x="%.1f" y="11" font-size="9" text-anchor="middle" fill="#555">&#8594;%d</text>`,
			labelW+cell*float64(j)+cell/2, j)
	}
	for i, row := range traffic {
		y := labelH + cell*float64(i)
		fmt.Fprintf(&b, `<text x="4" y="%.1f" font-size="9" fill="#555">from %d</text>`, y+cell/2+3, i)
		for j, v := range row {
			x := labelW + cell*float64(j)
			fill := "#fff"
			if v > 0 && max > 0 {
				// Light (97%) to saturated (45%) with volume.
				l := 97 - int(52*float64(v)/float64(max))
				fill = fmt.Sprintf("hsl(8, 72%%, %d%%)", l)
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#ddd"><title>%d &#8594; %d: %d messages</title></rect>`,
				x, y, cell, cell, fill, i, j, v)
			if n <= 12 && v > 0 {
				tc := "#333"
				if float64(v) > 0.6*float64(max) {
					tc = "#fff"
				}
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle" fill="%s">%d</text>`,
					x+cell/2, y+cell/2+3, tc, v)
			}
		}
	}
	fmt.Fprint(&b, `</svg>`)
	return template.HTML(b.String())
}

// anomalyRow is one entry of the profiler's anomaly feed.
type anomalyRow struct {
	Superstep        int
	Kind, Severity   string
	Critical, Warn   bool
	Where            string
	Value, Threshold string
	Detail, Action   string
}

func anomalyRows(evs []anomaly.Event) []anomalyRow {
	rows := make([]anomalyRow, 0, len(evs))
	for _, ev := range evs {
		where := "—"
		if ev.Worker >= 0 {
			where = fmt.Sprintf("worker %d", ev.Worker)
			if ev.Peer >= 0 {
				where = fmt.Sprintf("lane %d&#8594;%d", ev.Peer, ev.Worker)
			}
		}
		rows = append(rows, anomalyRow{
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

// handleProfiler renders the profiler page: timeline, heatmap with
// superstep scrubber, anomaly feed.
func (s *Server) handleProfiler(w http.ResponseWriter, r *http.Request) {
	jobID := r.PathValue("id")
	jm, err := s.jobMetrics(jobID)
	if errors.Is(err, metrics.ErrNoMetrics) {
		renderPage(w, fmt.Sprintf("%s — profiler", jobID), template.HTML(
			`<p class="muted">No metrics were recorded for this job, so there is nothing to
profile. Re-run with the metrics layer enabled (the default for graft run).</p>`))
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}

	// Selected superstep for the heatmap: ?superstep=N, clamped to the
	// recorded range; default is the heaviest-traffic superstep so the
	// first page load shows the most interesting matrix.
	sel := -1
	if v := r.FormValue("superstep"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			sel = n
		}
	}
	selIdx := -1
	if sel >= 0 {
		for i, ss := range jm.Supersteps {
			if ss.Superstep == sel {
				selIdx = i
				break
			}
		}
	}
	if selIdx < 0 {
		var heaviest int64 = -1
		for i, ss := range jm.Supersteps {
			if ss.MessagesSent > heaviest {
				heaviest, selIdx = ss.MessagesSent, i
			}
		}
	}

	var (
		traffic           [][]int64
		trafficSum        int64
		placement         []metrics.Item
		prev, next        int
		hasPrev, hasNext  bool
		selectedAnomalies []anomalyRow
	)
	selected := -1
	if selIdx >= 0 {
		ss := jm.Supersteps[selIdx]
		selected = ss.Superstep
		traffic = ss.Traffic
		for _, it := range metrics.Items(&ss) {
			if it.Line == "placement" && !it.Zero {
				placement = append(placement, it)
			}
		}
		for _, row := range traffic {
			for _, v := range row {
				trafficSum += v
			}
		}
		if selIdx > 0 {
			prev, hasPrev = jm.Supersteps[selIdx-1].Superstep, true
		}
		if selIdx+1 < len(jm.Supersteps) {
			next, hasNext = jm.Supersteps[selIdx+1].Superstep, true
		}
		selectedAnomalies = anomalyRows(ss.Anomalies)
	}

	data := struct {
		JobID             string
		Workers           int
		Timeline          template.HTML
		Heatmap           template.HTML
		Selected          int
		Prev, Next        int
		HasPrev, HasNext  bool
		TrafficSum        int64
		SelectedSent      int64
		HasTraffic        bool
		Placement         []metrics.Item
		SelectedAnomalies []anomalyRow
		Anomalies         []anomalyRow
		AnomalyCounts     map[string]int
	}{
		JobID:    jm.JobID,
		Workers:  jm.NumWorkers,
		Timeline: timelineSVG(jm.Supersteps, jm.NumWorkers, selected),
		Heatmap:  heatmapSVG(traffic),
		Selected: selected,
		Prev:     prev, Next: next,
		HasPrev: hasPrev, HasNext: hasNext,
		TrafficSum:        trafficSum,
		HasTraffic:        len(traffic) > 0,
		Placement:         placement,
		SelectedAnomalies: selectedAnomalies,
		Anomalies:         anomalyRows(jm.Anomalies),
		AnomalyCounts:     jm.AnomalyCounts,
	}
	if selIdx >= 0 {
		data.SelectedSent = jm.Supersteps[selIdx].MessagesSent
	}
	body, err := renderSub(profilerTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — profiler", jobID), body)
}
