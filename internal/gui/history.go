package gui

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// The history view shows one vertex across every superstep it was
// captured in — the "mentally replay superstep by superstep" workflow
// of the paper's debugging cycle as a single table.

var historyTmpl = template.Must(template.New("history").Parse(`
{{.Nav}}
<h2>Vertex {{.ID}} across supersteps</h2>
<table>
<tr><th>Superstep</th><th>Value before</th><th>Value after</th><th>Active</th>
<th>In</th><th>Out</th><th>Violations</th><th>Exception</th><th></th></tr>
{{range .Rows}}
<tr>
<td><a href="/job/{{$.JobID}}/vertex?superstep={{.Superstep}}&id={{$.ID}}">{{.Superstep}}</a></td>
<td>{{.Before}}</td><td>{{.After}}</td><td>{{.Active}}</td>
<td>{{.In}}</td><td>{{.Out}}</td><td>{{.Violations}}</td><td>{{.Exception}}</td>
<td><a class="reproduce" href="/job/{{$.JobID}}/reproduce?superstep={{.Superstep}}&id={{$.ID}}">Reproduce</a></td>
</tr>
{{end}}
</table>
<p>
<a class="reproduce" href="/job/{{.JobID}}/reproduce-suite?id={{.ID}}">Generate test suite for all supersteps</a>
</p>`))

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	history := db.CapturesOf(pregel.VertexID(id))
	if len(history) == 0 {
		http.Error(w, fmt.Sprintf("vertex %d was never captured", id), http.StatusNotFound)
		return
	}
	nav, err := navHTML(db, history[0].Superstep, db.StatusAt(history[0].Superstep))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type row struct {
		Superstep     int
		Before, After string
		Active        string
		In, Out       int
		Violations    int
		Exception     string
	}
	data := struct {
		Nav   template.HTML
		JobID string
		ID    int64
		Rows  []row
	}{Nav: nav, JobID: db.JobMeta().JobID, ID: id}
	for _, c := range history {
		active := "active"
		if c.HaltedAfter {
			active = "halted"
		}
		exc := ""
		if c.Exception != nil {
			exc = c.Exception.Message
		}
		data.Rows = append(data.Rows, row{
			Superstep: c.Superstep,
			Before:    pregel.ValueString(c.ValueBefore),
			After:     pregel.ValueString(c.ValueAfter),
			Active:    active,
			In:        len(c.Incoming), Out: len(c.Outgoing),
			Violations: len(c.Violations),
			Exception:  exc,
		})
	}
	body, err := renderSub(historyTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — vertex %d history", db.JobMeta().JobID, id), body)
}
