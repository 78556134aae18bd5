package gui

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// The replay-check view re-executes every captured vertex of a
// superstep against its recorded context and reports whether the
// replay matches the cluster execution — a live determinism audit of
// the trace, and the programmatic face of the Reproduce step.

var replayCheckTmpl = template.Must(template.New("replaycheck").Parse(`
{{.Nav}}
<h2>Replay check — superstep {{.Superstep}}</h2>
{{if not .Available}}
<p class="muted">No live computation registered for algorithm
"{{.Algorithm}}"; replay checking is unavailable for this job.</p>
{{else}}
<p>{{.OKCount}}/{{.Total}} captured vertices replay identically to the
cluster execution.</p>
<table>
<tr><th>Vertex</th><th>Replay</th><th>Divergences</th></tr>
{{range .Rows}}
<tr>
<td><a href="/job/{{$.JobID}}/vertex?superstep={{$.Superstep}}&id={{.ID}}">{{.ID}}</a></td>
<td>{{if .OK}}OK{{else}}DIVERGED{{end}}{{if .Flagged}} (captured nondeterministic){{end}}</td>
<td>{{.Diffs}}</td>
</tr>
{{end}}
</table>
{{end}}`))

func (s *Server) handleReplayCheck(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	captures := db.CapturesAt(superstep)
	nav, err := navHTML(db, superstep, trace.StatusOf(captures))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type row struct {
		ID    pregel.VertexID
		OK    bool
		Diffs string
		// Flagged: the capture already said its compute does not re-run
		// the same way (trace.ReasonNondeterministic).
		Flagged bool
	}
	data := struct {
		Nav       template.HTML
		JobID     string
		Algorithm string
		Superstep int
		Available bool
		OKCount   int
		Total     int
		Rows      []row
	}{Nav: nav, JobID: db.JobMeta().JobID, Algorithm: db.JobMeta().Algorithm, Superstep: superstep}

	if comp, _ := s.algorithmOf(db); comp != nil {
		data.Available = true
		meta := db.MetaAt(superstep)
		for _, c := range captures {
			out := repro.ReplayCapture(c, meta, comp)
			diffs := repro.Fidelity(c, out)
			if len(diffs) == 0 {
				data.OKCount++
			}
			data.Rows = append(data.Rows, row{
				ID:      c.ID,
				OK:      len(diffs) == 0,
				Diffs:   strings.Join(diffs, "; "),
				Flagged: c.Reasons.Has(trace.ReasonNondeterministic),
			})
			data.Total++
		}
	}
	body, err := renderSub(replayCheckTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — replay check @ superstep %d", db.JobMeta().JobID, superstep), body)
}
