// Package gui is Graft's browser interface (paper §3.2): the
// Node-link, Tabular, and Violations and Exceptions views over
// captured traces, superstep-by-superstep replay navigation, the
// Reproduce Context buttons, and the offline graph-construction mode
// for building end-to-end tests (§3.4). It serves plain HTML + SVG
// over net/http along with a JSON API.
package gui

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// Server serves the Graft GUI over a trace store.
type Server struct {
	store *trace.Store

	mu         sync.Mutex
	views      map[string]trace.View
	offline    map[string]*pregel.Graph
	algorithms func(trace.JobMeta) (pregel.Computation, repro.GenSpec)
	metricsSrc func(jobID string) *metrics.Registry
}

// NewServer creates a GUI server over the given trace store.
func NewServer(store *trace.Store) *Server {
	return &Server{
		store:   store,
		views:   map[string]trace.View{},
		offline: map[string]*pregel.Graph{},
	}
}

// AttachAlgorithms tells the server how to rebuild a job's algorithm
// from its manifest (name, seed, superstep budget): the live
// computation the replay-check view re-executes captures with, and the
// code-generation spec that makes Reproduce Context buttons emit tests
// calling the right constructor. Without it, or for a job it returns
// zero values for, the replay check is unavailable and generated tests
// hold a TODO placeholder. Call before Handler.
func (s *Server) AttachAlgorithms(resolve func(trace.JobMeta) (pregel.Computation, repro.GenSpec)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.algorithms = resolve
}

func (s *Server) algorithmOf(db trace.View) (pregel.Computation, repro.GenSpec) {
	s.mu.Lock()
	resolve := s.algorithms
	s.mu.Unlock()
	if resolve == nil {
		return nil, repro.GenSpec{}
	}
	return resolve(db.JobMeta())
}

// db opens (and caches) a job's trace view: a lazy trace.Reader that
// fetches only the segments a page touches.
func (s *Server) db(jobID string) (trace.View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.views[jobID]; ok {
		return v, nil
	}
	v, err := s.store.OpenReader(jobID)
	if err != nil {
		return nil, err
	}
	s.views[jobID] = v
	return v, nil
}

// Handler returns the GUI's routing handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleJobs)
	mux.HandleFunc("GET /job/{id}/nodelink", s.jobView(s.handleNodeLink))
	mux.HandleFunc("GET /job/{id}/tabular", s.jobView(s.handleTabular))
	mux.HandleFunc("GET /job/{id}/violations", s.jobView(s.handleViolations))
	mux.HandleFunc("GET /job/{id}/vertex", s.jobView(s.handleVertex))
	mux.HandleFunc("GET /job/{id}/master", s.jobView(s.handleMaster))
	mux.HandleFunc("GET /job/{id}/replaycheck", s.jobView(s.handleReplayCheck))
	mux.HandleFunc("GET /job/{id}/history", s.jobView(s.handleHistory))
	mux.HandleFunc("GET /job/{id}/reproduce", s.jobView(s.handleReproduce))
	mux.HandleFunc("GET /job/{id}/reproduce-suite", s.jobView(s.handleReproduceSuite))
	mux.HandleFunc("GET /job/{id}/reproduce-master", s.jobView(s.handleReproduceMaster))
	mux.HandleFunc("GET /job/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /job/{id}/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /job/{id}/profiler", s.handleProfiler)

	mux.HandleFunc("GET /diff", s.handleDiff)

	mux.HandleFunc("GET /api/jobs", s.apiJobs)
	mux.HandleFunc("GET /api/job/{id}/supersteps", s.jobView(s.apiSupersteps))
	mux.HandleFunc("GET /api/job/{id}/superstep/{n}", s.jobView(s.apiSuperstep))
	mux.HandleFunc("GET /api/job/{id}/search", s.jobView(s.apiSearch))

	s.registerOffline(mux)
	return mux
}

// jobView adapts a handler that needs an open trace.
func (s *Server) jobView(h func(http.ResponseWriter, *http.Request, trace.View)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		db, err := s.db(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		h(w, r, db)
	}
}

func renderPage(w http.ResponseWriter, title string, body template.HTML) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = pageTmpl.Execute(w, struct {
		Title string
		Body  template.HTML
	}{title, body})
}

func renderSub(t *template.Template, data any) (template.HTML, error) {
	var b strings.Builder
	if err := t.Execute(&b, data); err != nil {
		return "", err
	}
	return template.HTML(b.String()), nil
}

// superstepOf parses ?superstep, clamped to the trace's range.
func superstepOf(r *http.Request, db trace.View) int {
	max := db.MaxSuperstep()
	n, err := strconv.Atoi(r.FormValue("superstep"))
	if err != nil {
		n = 0
	}
	if n < 0 {
		n = 0
	}
	if max >= 0 && n > max {
		n = max
	}
	return n
}

type aggRow struct{ Name, Value string }

// navHTML renders the shared superstep navigation bar with the M/V/E
// status boxes and the aggregator panel. A page that holds the
// superstep's captures passes trace.StatusOf of them; the others pass
// db.StatusAt, which fetches and decodes the superstep to compute it.
func navHTML(db trace.View, superstep int, status trace.Status) (template.HTML, error) {
	meta := db.MetaAt(superstep)
	var aggs []aggRow
	var nv, ne int64
	if meta != nil {
		nv, ne = meta.NumVertices, meta.NumEdges
		names := make([]string, 0, len(meta.Aggregated))
		for name := range meta.Aggregated {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			aggs = append(aggs, aggRow{name, pregel.ValueString(meta.Aggregated[name])})
		}
	}
	supersteps := db.Supersteps()
	prev, next := -1, -1
	for i, s := range supersteps {
		if s == superstep {
			if i > 0 {
				prev = supersteps[i-1]
			}
			if i+1 < len(supersteps) {
				next = supersteps[i+1]
			}
		}
	}
	return renderSub(superstepNavTmpl, struct {
		JobID            string
		Superstep        int
		Max              int
		Prev, Next       int
		HasPrev, HasNext bool
		Status           trace.Status
		NumVertices      int64
		NumEdges         int64
		Aggregators      []aggRow
	}{
		JobID:     db.JobMeta().JobID,
		Superstep: superstep,
		Max:       db.MaxSuperstep(),
		Prev:      prev, Next: next,
		HasPrev: prev >= 0, HasNext: next >= 0,
		Status:      status,
		NumVertices: nv, NumEdges: ne,
		Aggregators: aggs,
	})
}

// --- Job list ---

type jobRow struct {
	ID, Algorithm, Status     string
	Vertices, Edges, Captures int64
	Workers, Supersteps       int
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	ids, err := s.store.ListJobs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var rows []jobRow
	for _, id := range ids {
		meta, err := s.store.ReadMeta(id)
		if err != nil {
			continue
		}
		row := jobRow{
			ID: id, Algorithm: meta.Algorithm,
			Vertices: meta.NumVertices, Edges: meta.NumEdges,
			Workers: meta.NumWorkers, Status: "running",
		}
		if res, done, _ := s.store.ReadResult(id); done {
			row.Supersteps = res.Supersteps
			row.Captures = res.Captures
			row.Status = res.Reason
			if res.Error != "" {
				row.Status = "failed: " + res.Error
			}
		}
		rows = append(rows, row)
	}
	body, err := renderSub(jobsTmpl, struct{ Jobs []jobRow }{rows})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, "jobs", body)
}

// --- Node-link view (Figure 3) ---

func (s *Server) handleNodeLink(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	captures := db.CapturesAt(superstep)
	nav, err := navHTML(db, superstep, trace.StatusOf(captures))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	svg := nodeLinkSVG(db.JobMeta().JobID, superstep, captures)
	body, err := renderSub(nodeLinkTmpl, struct {
		Nav template.HTML
		SVG template.HTML
	}{nav, svg})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — node-link view", db.JobMeta().JobID), body)
}

// --- Tabular view (Figure 4) ---

type tabRow struct {
	ID            pregel.VertexID
	Before, After string
	Active        string
	In, Out       int
	Reasons       string
}

func (s *Server) handleTabular(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	nav, err := navHTML(db, superstep, db.StatusAt(superstep))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	q := trace.Query{Superstep: superstep}
	if v := r.FormValue("vertex"); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			vid := pregel.VertexID(id)
			q.VertexID = &vid
		}
	}
	if v := r.FormValue("neighbor"); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			vid := pregel.VertexID(id)
			q.NeighborID = &vid
		}
	}
	q.ValueContains = r.FormValue("value")
	q.MessageContains = r.FormValue("message")

	var rows []tabRow
	for _, c := range db.Search(q) {
		active := "active"
		if c.HaltedAfter {
			active = "halted"
		}
		rows = append(rows, tabRow{
			ID:     c.ID,
			Before: pregel.ValueString(c.ValueBefore),
			After:  pregel.ValueString(c.ValueAfter),
			Active: active,
			In:     len(c.Incoming), Out: len(c.Outgoing),
			Reasons: c.Reasons.String(),
		})
	}
	body, err := renderSub(tabularTmpl, struct {
		Nav                                  template.HTML
		JobID                                string
		Superstep                            int
		QVertex, QNeighbor, QValue, QMessage string
		Rows                                 []tabRow
	}{nav, db.JobMeta().JobID, superstep,
		r.FormValue("vertex"), r.FormValue("neighbor"),
		r.FormValue("value"), r.FormValue("message"), rows})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — tabular view", db.JobMeta().JobID), body)
}

// --- Violations and Exceptions view (Figure 5) ---

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	all := r.FormValue("all") != ""
	captures := db.CapturesAt(superstep)
	nav, err := navHTML(db, superstep, trace.StatusOf(captures))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var rows []trace.ViolationRow
	if all {
		rows = db.AllViolations()
	} else {
		rows = trace.ViolationRows(superstep, captures)
	}
	body, err := renderSub(violationsTmpl, struct {
		Nav           template.HTML
		JobID         string
		AllSupersteps bool
		Rows          []trace.ViolationRow
	}{nav, db.JobMeta().JobID, all, rows})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — violations & exceptions", db.JobMeta().JobID), body)
}

// --- Vertex context detail ---

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	c := db.Capture(superstep, pregel.VertexID(id))
	if c == nil {
		http.Error(w, fmt.Sprintf("vertex %d was not captured at superstep %d", id, superstep), http.StatusNotFound)
		return
	}
	nav, err := navHTML(db, superstep, db.StatusAt(superstep))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type edgeRow struct {
		Target pregel.VertexID
		Value  string
	}
	type outRow struct {
		To    pregel.VertexID
		Value string
	}
	type violRow struct {
		Kind, Value string
		DstID       pregel.VertexID
	}
	data := struct {
		Nav                          template.HTML
		JobID                        string
		ID                           pregel.VertexID
		Superstep                    int
		PrevSuperstep, NextSuperstep int
		Reasons, Before, After       string
		Nondeterministic             bool
		Halted                       bool
		Worker                       int
		Exception, Stack             string
		Edges                        []edgeRow
		Incoming                     []string
		Outgoing                     []outRow
		Violations                   []violRow
	}{
		Nav: nav, JobID: db.JobMeta().JobID, ID: c.ID, Superstep: superstep,
		PrevSuperstep: superstep - 1, NextSuperstep: superstep + 1,
		Reasons:          c.Reasons.String(),
		Nondeterministic: c.Reasons.Has(trace.ReasonNondeterministic),
		Before:           pregel.ValueString(c.ValueBefore),
		After:            pregel.ValueString(c.ValueAfter),
		Halted:           c.HaltedAfter, Worker: c.Worker,
	}
	if c.Exception != nil {
		data.Exception, data.Stack = c.Exception.Message, c.Exception.Stack
	}
	for _, e := range c.Edges {
		data.Edges = append(data.Edges, edgeRow{e.Target, pregel.ValueString(e.Value)})
	}
	for _, m := range c.Incoming {
		data.Incoming = append(data.Incoming, pregel.ValueString(m))
	}
	for _, m := range c.Outgoing {
		data.Outgoing = append(data.Outgoing, outRow{m.To, pregel.ValueString(m.Value)})
	}
	for _, v := range c.Violations {
		data.Violations = append(data.Violations, violRow{v.Kind.String(), pregel.ValueString(v.Value), v.DstID})
	}
	body, err := renderSub(vertexTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — vertex %d @ superstep %d", db.JobMeta().JobID, id, superstep), body)
}

// --- Master view ---

func (s *Server) handleMaster(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	nav, err := navHTML(db, superstep, db.StatusAt(superstep))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type masterAggRow struct{ Name, Before, After string }
	data := struct {
		Nav              template.HTML
		JobID            string
		Superstep        int
		Present, Halted  bool
		Exception, Stack string
		Aggs             []masterAggRow
		Sets             []aggRow
	}{Nav: nav, JobID: db.JobMeta().JobID, Superstep: superstep}
	if mc := db.MasterAt(superstep); mc != nil {
		data.Present = true
		data.Halted = mc.Halted
		if mc.Exception != nil {
			data.Exception, data.Stack = mc.Exception.Message, mc.Exception.Stack
		}
		names := make([]string, 0, len(mc.AggregatedBefore))
		for name := range mc.AggregatedBefore {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			data.Aggs = append(data.Aggs, masterAggRow{
				name,
				pregel.ValueString(mc.AggregatedBefore[name]),
				pregel.ValueString(mc.AggregatedAfter[name]),
			})
		}
		for _, set := range mc.Sets {
			data.Sets = append(data.Sets, aggRow{set.Name, pregel.ValueString(set.Value)})
		}
	}
	body, err := renderSub(masterTmpl, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	renderPage(w, fmt.Sprintf("%s — master @ superstep %d", db.JobMeta().JobID, superstep), body)
}

// --- Reproduce Context buttons ---

func (s *Server) handleReproduce(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	_, spec := s.algorithmOf(db)
	code, err := repro.GenerateVertexTest(db, superstep, pregel.VertexID(id), spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, code)
}

// handleReproduceSuite emits one test per captured superstep of a
// vertex (the §7 unit-testing extension).
func (s *Server) handleReproduceSuite(w http.ResponseWriter, r *http.Request, db trace.View) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	_, spec := s.algorithmOf(db)
	code, err := repro.GenerateVertexSuite(db, pregel.VertexID(id), spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, code)
}

func (s *Server) handleReproduceMaster(w http.ResponseWriter, r *http.Request, db trace.View) {
	superstep := superstepOf(r, db)
	_, spec := s.algorithmOf(db)
	code, err := repro.GenerateMasterTest(db, superstep, spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, code)
}

// --- JSON API ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) apiJobs(w http.ResponseWriter, r *http.Request) {
	ids, err := s.store.ListJobs()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, ids)
}

func (s *Server) apiSupersteps(w http.ResponseWriter, r *http.Request, db trace.View) {
	writeJSON(w, db.Supersteps())
}

type apiCaptureRow struct {
	ID       int64  `json:"id"`
	Before   string `json:"value_before"`
	After    string `json:"value_after"`
	Halted   bool   `json:"halted"`
	In       int    `json:"incoming"`
	Out      int    `json:"outgoing"`
	Reasons  string `json:"reasons"`
	HasError bool   `json:"has_exception"`
}

func (s *Server) apiSuperstep(w http.ResponseWriter, r *http.Request, db trace.View) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		http.Error(w, "bad superstep", http.StatusBadRequest)
		return
	}
	meta := db.MetaAt(n)
	if meta == nil {
		http.Error(w, "superstep not in trace", http.StatusNotFound)
		return
	}
	aggs := map[string]string{}
	for name, v := range meta.Aggregated {
		aggs[name] = pregel.ValueString(v)
	}
	var rows []apiCaptureRow
	captures := db.CapturesAt(n)
	for _, c := range captures {
		rows = append(rows, apiCaptureRow{
			ID:     int64(c.ID),
			Before: pregel.ValueString(c.ValueBefore),
			After:  pregel.ValueString(c.ValueAfter),
			Halted: c.HaltedAfter,
			In:     len(c.Incoming), Out: len(c.Outgoing),
			Reasons:  c.Reasons.String(),
			HasError: c.Exception != nil,
		})
	}
	st := trace.StatusOf(captures)
	out := map[string]any{
		"superstep":         n,
		"num_vertices":      meta.NumVertices,
		"num_edges":         meta.NumEdges,
		"aggregated":        aggs,
		"captures":          rows,
		"message_violation": st.MessageViolation,
		"vertex_violation":  st.VertexViolation,
		"exception":         st.Exception,
	}
	if sgs := db.SubgraphsAt(n); len(sgs) > 0 {
		type sgRow struct {
			ID           int64  `json:"id"`
			Members      int    `json:"members"`
			Iterations   int64  `json:"internal_iterations"`
			MessagesSent int64  `json:"sent"`
			Halted       bool   `json:"halted"`
			Digest       string `json:"digest"`
		}
		srows := make([]sgRow, 0, len(sgs))
		for _, sc := range sgs {
			srows = append(srows, sgRow{
				ID: int64(sc.ID), Members: len(sc.Members),
				Iterations: sc.Iterations, MessagesSent: sc.MessagesSent,
				Halted: sc.HaltedAfter, Digest: sc.Digest,
			})
		}
		out["subgraphs"] = srows
	}
	writeJSON(w, out)
}

func (s *Server) apiSearch(w http.ResponseWriter, r *http.Request, db trace.View) {
	q := trace.Query{Superstep: -1}
	if v := r.FormValue("superstep"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			q.Superstep = n
		}
	}
	if v := r.FormValue("vertex"); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			vid := pregel.VertexID(id)
			q.VertexID = &vid
		}
	}
	if v := r.FormValue("neighbor"); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			vid := pregel.VertexID(id)
			q.NeighborID = &vid
		}
	}
	q.ValueContains = r.FormValue("value")
	q.MessageContains = r.FormValue("message")
	var rows []apiCaptureRow
	for _, c := range db.Search(q) {
		rows = append(rows, apiCaptureRow{
			ID:     int64(c.ID),
			Before: pregel.ValueString(c.ValueBefore),
			After:  pregel.ValueString(c.ValueAfter),
			Halted: c.HaltedAfter,
			In:     len(c.Incoming), Out: len(c.Outgoing),
			Reasons:  c.Reasons.String(),
			HasError: c.Exception != nil,
		})
	}
	writeJSON(w, rows)
}
