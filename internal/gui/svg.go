package gui

import (
	"fmt"
	"html/template"
	"math"
	"sort"
	"strings"

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
func RenderNodeLink(db trace.View, superstep int) template.HTML {
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

// sparklineSVG renders values as a compact polyline, auto-scaled from
// zero to the series maximum, with the last value printed after the
// line. The metrics dashboard uses it for the per-superstep trend
// strips; a single point degrades to a dot.
func sparklineSVG(values []float64, w, h int, color string) template.HTML {
	if len(values) == 0 {
		return template.HTML(`<span class="muted">no data</span>`)
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	const pad = 4.0
	plotW, plotH := float64(w)-2*pad-46, float64(h)-2*pad
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" style="background:white;border:1px solid #ddd">`,
		w, h, w, h)
	x := func(i int) float64 {
		if len(values) == 1 {
			return pad + plotW/2
		}
		return pad + plotW*float64(i)/float64(len(values)-1)
	}
	y := func(v float64) float64 { return pad + plotH*(1-v/max) }
	if len(values) == 1 {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`, x(0), y(values[0]), color)
	} else {
		var pts strings.Builder
		for i, v := range values {
			if i > 0 {
				pts.WriteByte(' ')
			}
			fmt.Fprintf(&pts, "%.1f,%.1f", x(i), y(v))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`, pts.String(), color)
		last := len(values) - 1
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2" fill="%s"/>`, x(last), y(values[last]), color)
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" fill="#555">%s</text>`,
		pad+plotW+6, y(values[len(values)-1])+3, escapeSVG(formatSpark(values[len(values)-1])))
	fmt.Fprint(&b, `</svg>`)
	return template.HTML(b.String())
}

// formatSpark renders a sparkline's last value compactly.
func formatSpark(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e7 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
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
