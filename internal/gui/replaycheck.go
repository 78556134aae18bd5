package gui

import (
	"fmt"
	"html/template"
	"net/http"

	"graft/internal/repro"
	"graft/internal/trace"
)

// The replay-check view re-executes every capture of a superstep —
// vertex, subgraph and master — against its recorded context
// (repro.CheckSuperstep) and reports whether the replay matches the
// cluster execution: a live determinism audit of the trace, and the
// programmatic face of the Reproduce step.

var replayCheckTmpl = template.Must(template.New("replaycheck").Parse(`
{{.Nav}}
<h2>Replay check — superstep {{.Superstep}}</h2>
{{if not .Available}}
<p class="muted">No live computation registered for algorithm
"{{.Algorithm}}"; replay checking is unavailable for this job.</p>
{{else}}
<p>{{.OKCount}}/{{len .Checks}} captures replay identically to the
cluster execution.</p>
<table>
<tr><th>Capture</th><th>Replay</th><th>Divergences</th></tr>
{{range .Checks}}
<tr>
<td>{{if eq .Kind "master"}}<a href="/job/{{$.JobID}}/master?superstep={{$.Superstep}}">master</a>{{else}}{{.Kind}} <a href="/job/{{$.JobID}}/vertex?superstep={{$.Superstep}}&id={{.ID}}">{{.ID}}</a>{{end}}</td>
<td>{{if .Diffs}}DIVERGED{{else}}OK{{end}}{{if .Nondeterministic}} (captured nondeterministic){{end}}</td>
<td>{{range $i, $d := .Diffs}}{{if $i}}; {{end}}{{$d}}{{end}}</td>
</tr>
{{end}}
</table>
{{end}}`))

func (s *Server) handleReplayCheck(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	nav, err := navHTML(db, superstep, db.StatusAt(superstep))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data := struct {
		Nav       template.HTML
		JobID     string
		Algorithm string
		Superstep int
		Available bool
		OKCount   int
		Checks    []repro.Check
	}{Nav: nav, JobID: db.JobMeta().JobID, Algorithm: db.JobMeta().Algorithm, Superstep: superstep}

	if alg, _ := s.algorithmOf(db); alg != nil {
		data.Available = true
		data.Checks = repro.CheckSuperstep(db, superstep, alg)
		for _, c := range data.Checks {
			if len(c.Diffs) == 0 {
				data.OKCount++
			}
		}
	}
	body, err := renderSub(replayCheckTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — replay check @ superstep %d", db.JobMeta().JobID, superstep), body)
}
