package gui

import "html/template"

// The GUI mirrors the three views of the paper's Figures 3-5 — the
// Node-link View, the Tabular View and the Violations and Exceptions
// View — plus the offline graph-construction mode of §3.4. Styling is
// deliberately minimal; structure and information content follow the
// paper.

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}} — Graft</title>
<style>
body { font-family: sans-serif; margin: 1.2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; font-size: 0.92em; text-align: left; }
th { background: #f0f0f0; }
.status { display: inline-block; width: 1.6em; text-align: center; font-weight: bold;
          border-radius: 3px; padding: 0.15em 0; margin-right: 0.3em; color: white; }
.green { background: #2a2; } .red { background: #c33; }
.status.flag { width: auto; padding: 0.15em 0.5em; }
.nav a, .nav span { margin-right: 0.8em; }
.aggs { float: right; border: 1px solid #ccc; padding: 0.5em 0.8em; font-size: 0.9em; background: #fafafa; }
.muted { color: #888; }
form.search input { margin-right: 0.5em; }
pre { background: #f6f6f6; border: 1px solid #ddd; padding: 0.8em; overflow-x: auto; }
.reproduce { background: #246; color: white; padding: 0.3em 0.7em; border-radius: 4px; text-decoration: none; }
</style></head><body>
<h1><a href="/">Graft</a> — {{.Title}}</h1>
{{.Body}}
</body></html>`))

var jobsTmpl = template.Must(template.New("jobs").Parse(`
<p>{{len .Jobs}} job trace(s) in the store.</p>
<table>
<tr><th>Job</th><th>Algorithm</th><th>Vertices</th><th>Edges</th><th>Workers</th>
<th>Supersteps</th><th>Captures</th><th>Status</th></tr>
{{range .Jobs}}
<tr>
<td><a href="/job/{{.ID}}/nodelink">{{.ID}}</a></td>
<td>{{.Algorithm}}</td><td>{{.Vertices}}</td><td>{{.Edges}}</td><td>{{.Workers}}</td>
<td>{{.Supersteps}}</td><td>{{.Captures}}</td><td>{{.Status}}</td>
</tr>
{{end}}
</table>
<p><a href="/offline/">Offline mode: construct small test graphs</a> |
<a href="/diff">Compare two job traces</a></p>`))

var superstepNavTmpl = template.Must(template.New("nav").Parse(`
<div class="nav">
<span class="status {{if .Status.MessageViolation}}red{{else}}green{{end}}" title="message constraint">M</span>
<span class="status {{if .Status.VertexViolation}}red{{else}}green{{end}}" title="vertex value constraint">V</span>
<span class="status {{if .Status.Exception}}red{{else}}green{{end}}" title="exceptions">E</span>
{{if .HasPrev}}<a href="?superstep={{.Prev}}">&laquo; Previous superstep</a>{{else}}<span class="muted">&laquo; Previous superstep</span>{{end}}
<strong>Superstep {{.Superstep}} / {{.Max}}</strong>
{{if .HasNext}}<a href="?superstep={{.Next}}">Next superstep &raquo;</a>{{else}}<span class="muted">Next superstep &raquo;</span>{{end}}
| <a href="/job/{{.JobID}}/nodelink?superstep={{.Superstep}}">Node-link</a>
  <a href="/job/{{.JobID}}/tabular?superstep={{.Superstep}}">Tabular</a>
  <a href="/job/{{.JobID}}/violations?superstep={{.Superstep}}">Violations &amp; Exceptions</a>
  <a href="/job/{{.JobID}}/master?superstep={{.Superstep}}">Master</a>
  <a href="/job/{{.JobID}}/replaycheck?superstep={{.Superstep}}">Replay check</a>
  <a href="/job/{{.JobID}}/metrics?superstep={{.Superstep}}">Metrics</a>
  <a href="/job/{{.JobID}}/profiler?superstep={{.Superstep}}">Profiler</a>
</div>
<div class="aggs"><strong>Global data</strong><br>
vertices: {{.NumVertices}}<br>edges: {{.NumEdges}}<br>
{{range .Aggregators}}{{.Name}} = {{.Value}}<br>{{end}}
</div>`))

var nodeLinkTmpl = template.Must(template.New("nodelink").Parse(`
{{.Nav}}
<p class="muted">Captured vertices are drawn large with ID and value; uncaptured
neighbors are small with only their ID; inactive (halted) vertices are dimmed.
Click a vertex for its full context.</p>
{{.SVG}}
`))

var tabularTmpl = template.Must(template.New("tabular").Parse(`
{{.Nav}}
<form class="search" method="get">
<input type="hidden" name="superstep" value="{{.Superstep}}">
vertex <input name="vertex" size="8" value="{{.QVertex}}">
neighbor <input name="neighbor" size="8" value="{{.QNeighbor}}">
value <input name="value" size="12" value="{{.QValue}}">
message <input name="message" size="12" value="{{.QMessage}}">
<input type="submit" value="Search">
</form>
<table>
<tr><th>Vertex</th><th>Value before</th><th>Value after</th><th>Active</th>
<th>In-msgs</th><th>Out-msgs</th><th>Captured because</th><th></th></tr>
{{range .Rows}}
<tr>
<td><a href="/job/{{$.JobID}}/vertex?superstep={{$.Superstep}}&id={{.ID}}">{{.ID}}</a></td>
<td>{{.Before}}</td><td>{{.After}}</td><td>{{.Active}}</td>
<td>{{.In}}</td><td>{{.Out}}</td><td>{{.Reasons}}</td>
<td><a class="reproduce" href="/job/{{$.JobID}}/reproduce?superstep={{$.Superstep}}&id={{.ID}}">Reproduce Vertex Context</a></td>
</tr>
{{end}}
</table>
<p>{{len .Rows}} captured vertices match.</p>`))

var violationsTmpl = template.Must(template.New("violations").Parse(`
{{.Nav}}
<h2>Violations and exceptions{{if .AllSupersteps}} (all supersteps){{end}}</h2>
<p><a href="/job/{{.JobID}}/violations?all=1">show all supersteps</a></p>
<table>
<tr><th>Superstep</th><th>Vertex</th><th>Kind</th><th>Offending value / message</th><th>Destination</th><th></th></tr>
{{range .Rows}}
<tr>
<td>{{.Superstep}}</td>
<td><a href="/job/{{$.JobID}}/vertex?superstep={{.Superstep}}&id={{.VertexID}}">{{.VertexID}}</a></td>
<td>{{.Kind}}</td><td>{{.Detail}}</td><td>{{.DstID}}</td>
<td><a class="reproduce" href="/job/{{$.JobID}}/reproduce?superstep={{.Superstep}}&id={{.VertexID}}">Reproduce Vertex Context</a></td>
</tr>
{{if .Stack}}<tr><td colspan="6"><pre>{{.Stack}}</pre></td></tr>{{end}}
{{end}}
</table>
<p>{{len .Rows}} row(s).</p>`))

var vertexTmpl = template.Must(template.New("vertex").Parse(`
{{.Nav}}
<h2>Vertex {{.ID}} at superstep {{.Superstep}}
(<a href="/job/{{.JobID}}/history?id={{.ID}}">full history</a>)</h2>
<table>
<tr><th>Captured because</th><td>{{.Reasons}}{{if .Nondeterministic}}
<span class="status red flag" title="the outgoing messages below come from a re-run of this compute that ended differently from the job's own run">nondeterministic</span>{{end}}</td></tr>
<tr><th>Value before compute</th><td>{{.Before}}</td></tr>
<tr><th>Value after compute</th><td>{{.After}}</td></tr>
<tr><th>Voted to halt</th><td>{{.Halted}}</td></tr>
<tr><th>Worker</th><td>{{.Worker}}</td></tr>
</table>
{{if .Exception}}<h2>Exception</h2><p>{{.Exception}}</p><pre>{{.Stack}}</pre>{{end}}
<h2>Out-edges ({{len .Edges}})</h2>
<table><tr><th>Target</th><th>Edge value</th></tr>
{{range .Edges}}<tr><td>{{.Target}}</td><td>{{.Value}}</td></tr>{{end}}</table>
<h2>Incoming messages ({{len .Incoming}})</h2>
<table>{{range .Incoming}}<tr><td>{{.}}</td></tr>{{end}}</table>
<h2>Outgoing messages ({{len .Outgoing}})</h2>
<table><tr><th>To</th><th>Message</th></tr>
{{range .Outgoing}}<tr><td>{{.To}}</td><td>{{.Value}}</td></tr>{{end}}</table>
{{if .Violations}}<h2>Constraint violations</h2>
<table><tr><th>Kind</th><th>Value</th><th>Destination</th></tr>
{{range .Violations}}<tr><td>{{.Kind}}</td><td>{{.Value}}</td><td>{{.DstID}}</td></tr>{{end}}</table>{{end}}
<p>
<a class="reproduce" href="/job/{{.JobID}}/reproduce?superstep={{.Superstep}}&id={{.ID}}">Reproduce Vertex Context</a>
<a class="reproduce" href="/job/{{.JobID}}/reproduce-suite?id={{.ID}}">Reproduce All Supersteps (test suite)</a>
<a href="/job/{{.JobID}}/vertex?superstep={{.PrevSuperstep}}&id={{.ID}}">&laquo; this vertex in previous superstep</a>
<a href="/job/{{.JobID}}/vertex?superstep={{.NextSuperstep}}&id={{.ID}}">this vertex in next superstep &raquo;</a>
</p>`))

var masterTmpl = template.Must(template.New("master").Parse(`
{{.Nav}}
<h2>master.compute at superstep {{.Superstep}}</h2>
{{if not .Present}}<p class="muted">No master computation was registered for this job.</p>{{else}}
<table>
<tr><th>Halted computation</th><td>{{.Halted}}</td></tr>
</table>
{{if .Exception}}<h2>Exception</h2><p>{{.Exception}}</p><pre>{{.Stack}}</pre>{{end}}
<h2>Aggregators</h2>
<table><tr><th>Name</th><th>Before master</th><th>After master</th></tr>
{{range .Aggs}}<tr><td>{{.Name}}</td><td>{{.Before}}</td><td>{{.After}}</td></tr>{{end}}</table>
<h2>SetAggregated calls ({{len .Sets}})</h2>
<table><tr><th>Name</th><th>Value</th></tr>
{{range .Sets}}<tr><td>{{.Name}}</td><td>{{.Value}}</td></tr>{{end}}</table>
<p><a class="reproduce" href="/job/{{.JobID}}/reproduce-master?superstep={{.Superstep}}">Reproduce Master Context</a></p>
{{end}}`))

var metricsTmpl = template.Must(template.New("metrics").Parse(`
<p class="muted">Per-worker superstep telemetry folded at each barrier: compute wall
time, barrier waits, message traffic, trace-capture cost, and straggler/skew
indicators (max/mean ratios; a superstep is flagged when a worker runs
&ge;1.5&times; the mean). The <a href="/job/{{.JobID}}/profiler">profiler view</a>
has the per-worker timeline, the traffic heatmap and the anomaly feed.</p>
<table>
<tr><th></th><th>Algorithm</th><td>{{.Algorithm}}</td><th>Status</th><td>{{.Status}}</td></tr>
{{range .Sections}}<tr><th>{{or .Name "job"}}</th>{{range .Items}}<th>{{.Label}}</th><td>{{.Value}}</td>{{end}}</tr>
{{end}}</table>
{{if .Recoveries}}
<h2>Recoveries</h2>
<table>
<tr><th>Superstep</th><th>Mode</th><th>Partitions</th><th>From checkpoint</th>
<th>Steps replayed</th><th>Msgs replayed</th><th>Duration</th></tr>
{{range .Recoveries}}
<tr><td>{{.Superstep}}</td><td>{{.Mode}}</td><td>{{or .Partitions "all"}}</td><td>{{.CheckpointSuperstep}}</td>
<td>{{.SuperstepsReplayed}}</td><td>{{.MessagesReplayed}}</td><td>{{.Duration}}</td></tr>
{{end}}
</table>
{{end}}
<table><tr>
<th>compute time / superstep</th><th>messages sent / superstep</th><th>compute skew / superstep</th>
</tr><tr>
<td>{{.ComputeSpark}}</td><td>{{.SentSpark}}</td><td>{{.SkewSpark}}</td>
</tr></table>
<h2>Supersteps</h2>
<table>
<tr><th>Superstep</th>{{range .StepHead}}<th>{{.Label}}</th>{{end}}<th>Migrated</th></tr>
{{range .Rows}}
<tr{{if .Hot}} style="background:#fee"{{end}}>
<td><a href="?superstep={{.ID}}">{{.ID}}</a></td>
{{range .Cells}}<td>{{.Value}}</td>{{end}}<td>{{range .Migrations}}{{.From}}&rarr;{{.To}}: {{.Vertices}} {{else}}&mdash;{{end}}</td>
</tr>
{{end}}
</table>
{{if .WorkerRows}}
<h2>Workers at superstep {{.SelectedSuperstep}}</h2>
<table>
<tr><th>Worker</th>{{range .WorkerHead}}<th>{{.Label}}</th>{{end}}</tr>
{{range .WorkerRows}}
<tr{{if .Hot}} style="background:#fee"{{end}}>
<td>{{.ID}}{{if .Hot}} &#9888; straggler{{end}}</td>
{{range .Cells}}<td>{{.Value}}</td>{{end}}
</tr>
{{end}}
</table>
{{end}}`))

var profilerTmpl = template.Must(template.New("profiler").Parse(`
<p class="muted">Profiler view: per-worker superstep timeline (stacked
<span style="color:#246">&#9632;</span> compute /
<span style="color:#e90">&#9632;</span> barrier /
<span style="color:#999">&#9632;</span> capture bars, scaled to the busiest worker-superstep),
the sender&#8594;receiver traffic heatmap of one superstep, and the anomaly feed.
<a href="/job/{{.JobID}}/metrics">Metrics dashboard</a> |
<a href="/job/{{.JobID}}/tabular?superstep={{.Selected}}">Trace at this superstep</a></p>
<h2>Superstep timeline ({{.Workers}} workers)</h2>
{{.Timeline}}
<h2>Traffic heatmap — superstep {{.Selected}}</h2>
<div class="nav">
{{if .HasPrev}}<a href="?superstep={{.Prev}}">&laquo; Previous superstep</a>{{else}}<span class="muted">&laquo; Previous superstep</span>{{end}}
<strong>Superstep {{.Selected}}</strong>
{{if .HasNext}}<a href="?superstep={{.Next}}">Next superstep &raquo;</a>{{else}}<span class="muted">Next superstep &raquo;</span>{{end}}
{{if .HasTraffic}}| {{.TrafficSum}} messages in the matrix ({{.SelectedSent}} sent this superstep){{end}}
{{range .Placement}}| {{.Label}}: {{.Value}} {{end}}
</div>
{{.Heatmap}}
{{if .SelectedAnomalies}}
<h2>Anomalies at superstep {{.Selected}}</h2>
<table>
<tr><th>Kind</th><th>Severity</th><th>Where</th><th>Value</th><th>Threshold</th><th>Detail</th><th>Suggested action</th></tr>
{{range .SelectedAnomalies}}
<tr{{if .Critical}} style="background:#fdd"{{else if .Warn}} style="background:#fec"{{end}}>
<td>{{.Kind}}</td><td>{{.Severity}}</td><td>{{.Where}}</td>
<td>{{.Value}}</td><td>{{.Threshold}}</td><td>{{.Detail}}</td><td>{{.Action}}</td>
</tr>
{{end}}
</table>
{{end}}
<h2>Anomaly feed ({{len .Anomalies}} events{{range $kind, $n := .AnomalyCounts}}; {{$kind}}: {{$n}}{{end}})</h2>
{{if .Anomalies}}
<table>
<tr><th>Superstep</th><th>Kind</th><th>Severity</th><th>Where</th><th>Value</th><th>Threshold</th><th>Detail</th><th>Suggested action</th><th></th></tr>
{{range .Anomalies}}
<tr{{if .Critical}} style="background:#fdd"{{else if .Warn}} style="background:#fec"{{end}}>
<td><a href="/job/{{$.JobID}}/profiler?superstep={{.Superstep}}">{{.Superstep}}</a></td>
<td>{{.Kind}}</td><td>{{.Severity}}</td><td>{{.Where}}</td>
<td>{{.Value}}</td><td>{{.Threshold}}</td><td>{{.Detail}}</td><td>{{.Action}}</td>
<td><a href="/job/{{$.JobID}}/tabular?superstep={{.Superstep}}">trace</a></td>
</tr>
{{end}}
</table>
{{else}}
<p class="muted">No anomalies: every superstep stayed inside the detector thresholds.</p>
{{end}}`))

var offlineIndexTmpl = template.Must(template.New("offlineIndex").Parse(`
<p>Offline mode: construct small graphs for end-to-end tests (paper §3.4).</p>
<form method="post" action="/offline/new">
New graph name: <input name="name" size="16">
<input type="submit" value="Create empty graph">
</form>
<form method="post" action="/offline/premade">
Or pick a premade graph:
<select name="kind">
<option>path</option><option>cycle</option><option>star</option>
<option>bipartite</option><option>triangle</option><option>two-triangles</option>
</select>
size <input name="n" size="4" value="6">
name <input name="name" size="16" value="premade">
<input type="submit" value="Create premade graph">
</form>
<h2>Graphs under construction</h2>
<table><tr><th>Name</th><th>Vertices</th><th>Edges</th></tr>
{{range .Graphs}}<tr><td><a href="/offline/{{.Name}}">{{.Name}}</a></td><td>{{.Vertices}}</td><td>{{.Edges}}</td></tr>{{end}}
</table>`))

var offlineGraphTmpl = template.Must(template.New("offlineGraph").Parse(`
<p><a href="/offline/">&laquo; all graphs</a></p>
{{.SVG}}
<h2>Edit</h2>
<form method="post" action="/offline/{{.Name}}/vertex">
Add vertex: id <input name="id" size="6"> value <input name="value" size="8">
<input type="submit" value="Add / update vertex">
</form>
<form method="post" action="/offline/{{.Name}}/edge">
Add edge: from <input name="from" size="6"> to <input name="to" size="6">
weight <input name="weight" size="6"> <label><input type="checkbox" name="undirected" value="1" checked>undirected</label>
<input type="submit" value="Add edge">
</form>
<form method="post" action="/offline/{{.Name}}/delete-vertex">
Remove vertex: id <input name="id" size="6"> <input type="submit" value="Remove">
</form>
<h2>Vertices</h2>
<table><tr><th>ID</th><th>Value</th><th>Out-edges</th></tr>
{{range .Rows}}<tr><td>{{.ID}}</td><td>{{.Value}}</td><td>{{.Edges}}</td></tr>{{end}}
</table>
<h2>Use for testing</h2>
<p>
<a href="/offline/{{.Name}}/export.adjlist">Download adjacency list</a> |
<a href="/offline/{{.Name}}/export-test">End-to-end test code template</a>
</p>`))
