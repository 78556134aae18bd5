package gui

import (
	"fmt"
	"html/template"
	"math"
	"sort"
	"strings"
	"time"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// maxNodeLinkNodes bounds how many captured vertices the node-link
// diagram draws; the paper's GUI makes the same point — "if the user
// is debugging a large number of vertices, then the node-link diagram
// becomes difficult to use" — and directs them to the Tabular View.
const maxNodeLinkNodes = 48

// RenderNodeLink exposes the node-link diagram for embedding and
// benchmarks.
func RenderNodeLink(db *trace.Reader, superstep int) template.HTML {
	return nodeLinkSVG(db.JobMeta().JobID, superstep, db.CapturesAt(superstep))
}

// nodeLinkSVG renders the Figure 3 view for one superstep: captured
// vertices as large labelled circles (dimmed when halted), uncaptured
// neighbors as small ID-only circles, and links for the edges between
// drawn nodes, with edge values when present.
func nodeLinkSVG(jobID string, superstep int, captures []*trace.VertexCapture) template.HTML {
	truncated := false
	if len(captures) > maxNodeLinkNodes {
		captures = captures[:maxNodeLinkNodes]
		truncated = true
	}
	if len(captures) == 0 {
		return template.HTML(`<p class="muted">No vertices captured in this superstep.</p>`)
	}

	type pos struct{ x, y float64 }
	positions := map[pregel.VertexID]pos{}

	// Captured vertices on an inner circle, neighbors on an outer one.
	const w, h = 860.0, 640.0
	cx, cy := w/2, h/2
	rInner := math.Min(w, h)/2 - 150
	for i, c := range captures {
		a := 2 * math.Pi * float64(i) / float64(len(captures))
		positions[c.ID] = pos{cx + rInner*math.Cos(a), cy + rInner*math.Sin(a)}
	}
	var neighbors []pregel.VertexID
	seen := map[pregel.VertexID]bool{}
	for _, c := range captures {
		for _, e := range c.Edges {
			if _, captured := positions[e.Target]; !captured && !seen[e.Target] {
				seen[e.Target] = true
				neighbors = append(neighbors, e.Target)
			}
		}
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	if len(neighbors) > 3*maxNodeLinkNodes {
		neighbors = neighbors[:3*maxNodeLinkNodes]
		truncated = true
	}
	rOuter := math.Min(w, h)/2 - 40
	for i, id := range neighbors {
		a := 2*math.Pi*float64(i)/float64(len(neighbors)) + 0.11
		positions[id] = pos{cx + rOuter*math.Cos(a), cy + rOuter*math.Sin(a)}
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" style="border:1px solid #ccc;background:white">`,
		w, h, w, h)

	// Edges first, under the nodes.
	for _, c := range captures {
		from := positions[c.ID]
		for _, e := range c.Edges {
			to, ok := positions[e.Target]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999" stroke-width="1"/>`,
				from.x, from.y, to.x, to.y)
			if e.Value != nil {
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" fill="#777">%s</text>`,
					(from.x+to.x)/2, (from.y+to.y)/2-3, escapeSVG(pregel.ValueString(e.Value)))
			}
		}
	}

	// Neighbor-only nodes: small, ID label only.
	for _, id := range neighbors {
		p := positions[id]
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="7" fill="#ddd" stroke="#888"/>`, p.x, p.y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle" fill="#555">%d</text>`,
			p.x, p.y-10, int64(id))
	}

	// Captured nodes: large, colored by value, dimmed when halted,
	// linking to the vertex detail page.
	for _, c := range captures {
		p := positions[c.ID]
		opacity := 1.0
		if c.HaltedAfter {
			opacity = 0.35 // inactive vertices are dimmed (Figure 3)
		}
		fill := valueColor(pregel.ValueString(c.ValueAfter))
		stroke := "#333"
		if c.Exception != nil {
			stroke = "#c33"
		}
		fmt.Fprintf(&b, `<a href="/job/%s/vertex?superstep=%d&amp;id=%d"><g opacity="%.2f">`,
			template.URLQueryEscaper(jobID), superstep, int64(c.ID), opacity)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="26" fill="%s" stroke="%s" stroke-width="2"/>`,
			p.x, p.y, fill, stroke)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle" font-weight="bold">%d</text>`,
			p.x, p.y-2, int64(c.ID))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle">%s</text>`,
			p.x, p.y+10, escapeSVG(truncate(pregel.ValueString(c.ValueAfter), 14)))
		fmt.Fprint(&b, `</g></a>`)
	}
	fmt.Fprint(&b, `</svg>`)
	if truncated {
		fmt.Fprintf(&b, `<p class="muted">Diagram truncated to %d captured vertices; use the Tabular View for the full set.</p>`, maxNodeLinkNodes)
	}
	return template.HTML(b.String())
}

// timelineColors are the stacked-segment fills, in draw order.
var timelineColors = [3]string{"#246", "#e90", "#999"} // compute, barrier, capture

// timelineSVG renders the superstep timeline: one horizontal lane per
// worker, one column per superstep. Each cell is a stacked bar of the
// worker's compute, barrier-wait and capture time, scaled against the
// busiest worker-superstep so relative load (and stragglers) read at a
// glance. Column headers link to the metrics page at that superstep;
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
		return template.HTML(`<p class="muted">No traffic matrix was recorded for this superstep (a job.metrics file written before every superstep captured one).</p>`)
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

// valueColor hashes a value's display form to a stable pastel fill, so
// equal values (e.g. equal colors in the GC scenario) look identical.
func valueColor(s string) string {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return fmt.Sprintf("hsl(%d, 70%%, 80%%)", h%360)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func escapeSVG(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
