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
	"maps"
	"net/http"
	"path"
	"slices"
	"strconv"
	"sync"

	"graft/internal/algorithms"
	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// Server serves the Graft GUI over a trace store.
type Server struct {
	store *trace.Store

	// mu guards the maps and the two resolvers, and every offline graph
	// for the whole of a handler that reads or changes it.
	mu         sync.Mutex
	views      map[string]*trace.Reader
	offline    map[string]*pregel.Graph
	algorithms func(trace.JobMeta) (*algorithms.Algorithm, repro.GenSpec)
	metricsSrc func(jobID string) *metrics.Registry
}

// NewServer creates a GUI server over the given trace store. It
// rebuilds a job's algorithm with repro.Resolve until AttachAlgorithms
// says otherwise.
func NewServer(store *trace.Store) *Server {
	return &Server{
		store:      store,
		views:      map[string]*trace.Reader{},
		offline:    map[string]*pregel.Graph{},
		algorithms: repro.Resolve,
	}
}

// AttachAlgorithms tells the server how to rebuild a job's algorithm
// from its manifest (name, seed, superstep budget): the live vertex,
// subgraph and master computations the replay-check view re-executes
// captures with, and the code-generation spec that makes Reproduce
// Context buttons emit tests calling the right constructor. For a job
// it returns zero values for, the replay check is unavailable and
// generated tests hold a TODO placeholder. Call before Handler.
func (s *Server) AttachAlgorithms(resolve func(trace.JobMeta) (*algorithms.Algorithm, repro.GenSpec)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.algorithms = resolve
}

func (s *Server) algorithmOf(db *trace.Reader) (*algorithms.Algorithm, repro.GenSpec) {
	s.mu.Lock()
	resolve := s.algorithms
	s.mu.Unlock()
	return resolve(db.JobMeta())
}

// db opens a job's trace view: a lazy trace.Reader that fetches only
// the segments a page touches. A finished job's reader is cached; a
// running job's is opened afresh per request, so its pages follow the
// job. The open happens outside mu: loading one large index must not
// hold up every other page.
func (s *Server) db(jobID string) (*trace.Reader, error) {
	s.mu.Lock()
	v, ok := s.views[jobID]
	s.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := s.store.OpenReader(jobID)
	if err != nil || v.JobResult() == nil {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cached, ok := s.views[jobID]; ok {
		return cached, nil
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
	mux.HandleFunc("GET /job/{id}/reproduce-suite", s.jobView(s.handleReproduce))
	mux.HandleFunc("GET /job/{id}/reproduce-master", s.jobView(s.handleReproduce))
	mux.HandleFunc("GET /job/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /job/{id}/metrics.json", s.handleMetricsJSON)

	mux.HandleFunc("GET /diff", s.handleDiff)

	mux.HandleFunc("GET /api/job/{id}/supersteps", s.jobView(s.apiSupersteps))
	mux.HandleFunc("GET /api/job/{id}/superstep/{n}", s.jobView(s.apiSuperstep))
	mux.HandleFunc("GET /api/job/{id}/search", s.jobView(s.apiSearch))

	s.registerOffline(mux)
	return mux
}

// jobView adapts a handler that needs an open trace.
func (s *Server) jobView(h func(http.ResponseWriter, *http.Request, *trace.Reader)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		db, err := s.db(r.PathValue("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		h(w, r, db)
	}
}

// superstepOf parses ?superstep, clamped to the trace's range.
func superstepOf(r *http.Request, db *trace.Reader) int {
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

// navBar is the superstep navigation bar of every trace view: the M/V/E
// status boxes, the previous and next supersteps and the aggregator
// panel.
type navBar struct {
	JobID       string
	Superstep   int
	Max         int
	Prev, Next  int // -1 at either end
	Status      trace.Status
	NumVertices int64
	NumEdges    int64
	Aggregators []aggRow
}

// tracePage is the chrome of a trace view at a superstep, titled with
// the job and the formatted rest.
func tracePage(db *trace.Reader, superstep int, title string, args ...any) page {
	nav := &navBar{
		JobID:     db.JobMeta().JobID,
		Superstep: superstep,
		Max:       db.MaxSuperstep(),
		Prev:      -1, Next: -1,
		Status: db.StatusAt(superstep),
	}
	if meta := db.MetaAt(superstep); meta != nil {
		nav.NumVertices, nav.NumEdges = meta.NumVertices, meta.NumEdges
		for _, name := range slices.Sorted(maps.Keys(meta.Aggregated)) {
			nav.Aggregators = append(nav.Aggregators, aggRow{name, pregel.ValueString(meta.Aggregated[name])})
		}
	}
	steps := db.Supersteps()
	if i, ok := slices.BinarySearch(steps, superstep); ok {
		if i > 0 {
			nav.Prev = steps[i-1]
		}
		if i+1 < len(steps) {
			nav.Next = steps[i+1]
		}
	}
	return page{Title: nav.JobID + " — " + fmt.Sprintf(title, args...), Nav: nav}
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
	render(w, "jobs", struct {
		page
		Jobs []jobRow
	}{page{Title: "jobs"}, rows})
}

// --- Node-link view (Figure 3) ---

func (s *Server) handleNodeLink(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	captures := db.CapturesAt(superstep)
	render(w, "nodelink", struct {
		page
		SVG template.HTML
	}{tracePage(db, superstep, "node-link view"),
		nodeLinkSVG(db.JobMeta().JobID, superstep, captures)})
}

// --- Tabular view (Figure 4) ---

// captureRow is one trace.VertexCapture as a row of the tabular and
// history views and of the JSON API's capture lists.
type captureRow struct {
	ID         int64  `json:"id"`
	Superstep  int    `json:"-"`
	Before     string `json:"value_before"`
	After      string `json:"value_after"`
	Halted     bool   `json:"halted"`
	In         int    `json:"incoming"`
	Out        int    `json:"outgoing"`
	Reasons    string `json:"reasons"`
	HasError   bool   `json:"has_exception"`
	Violations int    `json:"-"`
	Exception  string `json:"-"`
}

func captureRows(captures []*trace.VertexCapture) []captureRow {
	var rows []captureRow
	for _, c := range captures {
		row := captureRow{
			ID:        int64(c.ID),
			Superstep: c.Superstep,
			Before:    pregel.ValueString(c.ValueBefore),
			After:     pregel.ValueString(c.ValueAfter),
			Halted:    c.HaltedAfter,
			In:        len(c.Incoming), Out: len(c.Outgoing),
			Reasons:    c.Reasons.String(),
			HasError:   c.Exception != nil,
			Violations: len(c.Violations),
		}
		if c.Exception != nil {
			row.Exception = c.Exception.Message
		}
		rows = append(rows, row)
	}
	return rows
}

// queryOf parses the capture search of the tabular view and the search
// API (?vertex, ?neighbor, ?value, ?message) over superstep, -1 for all.
func queryOf(r *http.Request, superstep int) trace.Query {
	q := trace.Query{Superstep: superstep, ValueContains: r.FormValue("value"), MessageContains: r.FormValue("message")}
	if id, err := strconv.ParseInt(r.FormValue("vertex"), 10, 64); err == nil {
		q.VertexID = (*pregel.VertexID)(&id)
	}
	if id, err := strconv.ParseInt(r.FormValue("neighbor"), 10, 64); err == nil {
		q.NeighborID = (*pregel.VertexID)(&id)
	}
	return q
}

func (s *Server) handleTabular(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	render(w, "tabular", struct {
		page
		QVertex, QNeighbor, QValue, QMessage string
		Rows                                 []captureRow
	}{tracePage(db, superstep, "tabular view"),
		r.FormValue("vertex"), r.FormValue("neighbor"), r.FormValue("value"), r.FormValue("message"),
		captureRows(db.Search(queryOf(r, superstep)))})
}

// --- Violations and Exceptions view (Figure 5) ---

func (s *Server) handleViolations(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	all := r.FormValue("all") != ""
	rows := db.ViolationsAt(superstep)
	if all {
		rows = db.AllViolations()
	}
	render(w, "violations", struct {
		page
		AllSupersteps bool
		Rows          []trace.ViolationRow
	}{tracePage(db, superstep, "violations & exceptions"), all, rows})
}

// --- Vertex context detail ---

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
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
		page
		ID                           pregel.VertexID
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
		page: tracePage(db, superstep, "vertex %d @ superstep %d", id, superstep),
		ID:   c.ID, PrevSuperstep: superstep - 1, NextSuperstep: superstep + 1,
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
	render(w, "vertex", data)
}

// --- Vertex history ---

// handleHistory shows one vertex across every superstep it was
// captured in: the "mentally replay superstep by superstep" workflow
// of the paper's debugging cycle as a single table.
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
	first := history[0].Superstep
	render(w, "history", struct {
		page
		ID   int64
		Rows []captureRow
	}{tracePage(db, first, "vertex %d history", id), id, captureRows(history)})
}

// --- Master view ---

func (s *Server) handleMaster(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	type masterAggRow struct{ Name, Before, After string }
	data := struct {
		page
		Present, Halted  bool
		Exception, Stack string
		Aggs             []masterAggRow
		Sets             []aggRow
	}{page: tracePage(db, superstep, "master @ superstep %d", superstep)}
	if mc := db.MasterAt(superstep); mc != nil {
		data.Present = true
		data.Halted = mc.Halted
		if mc.Exception != nil {
			data.Exception, data.Stack = mc.Exception.Message, mc.Exception.Stack
		}
		for _, name := range slices.Sorted(maps.Keys(mc.AggregatedBefore)) {
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
	render(w, "master", data)
}

// --- Replay check ---

// handleReplayCheck re-executes every capture of a superstep — vertex,
// subgraph and master — against its recorded context
// (repro.CheckSuperstep) and reports whether the replay matches the
// cluster execution: a live determinism audit of the trace, and the
// programmatic face of the Reproduce step.
func (s *Server) handleReplayCheck(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep := superstepOf(r, db)
	data := struct {
		page
		Algorithm string
		Available bool
		OKCount   int
		Checks    []repro.Check
	}{page: tracePage(db, superstep, "replay check @ superstep %d", superstep),
		Algorithm: db.JobMeta().Algorithm}
	if alg, _ := s.algorithmOf(db); alg != nil {
		data.Available = true
		data.Checks = repro.CheckSuperstep(db, superstep, alg)
		for _, c := range data.Checks {
			if len(c.Diffs) == 0 {
				data.OKCount++
			}
		}
	}
	render(w, "replaycheck", data)
}

// --- Reproduce Context buttons ---

// handleReproduce serves the three Reproduce Context buttons as plain
// Go source: /reproduce the test of one vertex at a superstep (of its
// component, in a subgraph-mode trace), /reproduce-suite one test per
// captured superstep of a vertex (the §7 unit-testing extension), and
// /reproduce-master the test of a superstep's master.compute.
func (s *Server) handleReproduce(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	_, spec := s.algorithmOf(db)
	superstep := superstepOf(r, db)
	var code string
	var err error
	if kind := path.Base(r.URL.Path); kind == "reproduce-master" {
		code, err = repro.GenerateMasterTest(db, superstep, spec)
	} else if id, perr := strconv.ParseInt(r.FormValue("id"), 10, 64); perr != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	} else if kind == "reproduce-suite" {
		code, err = repro.GenerateVertexSuite(db, pregel.VertexID(id), spec)
	} else {
		code, err = repro.GenerateVertexTest(db, superstep, pregel.VertexID(id), spec)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, code)
}

// --- Trace diff ---

// handleDiff compares two jobs' traces side by side — typically a buggy
// run against a fixed one with the same DebugConfig — surfacing the
// first superstep where a commonly captured vertex diverges.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	a, b := r.FormValue("a"), r.FormValue("b")
	type row struct {
		Superstep  int
		ID         pregel.VertexID
		Fields     string
		ValA, ValB string
	}
	data := struct {
		page
		A, B         string
		Ready        bool
		OnlyA, OnlyB []pregel.VertexID
		StatusDiffs  []int
		Rows         []row
	}{page: page{Title: "trace diff"}, A: a, B: b}
	if a != "" && b != "" {
		dbA, err := s.db(a)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		dbB, err := s.db(b)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		diff := trace.DiffJobs(dbA, dbB)
		data.Ready = true
		data.OnlyA, data.OnlyB = diff.OnlyA, diff.OnlyB
		data.StatusDiffs = diff.StatusDiffs
		for _, d := range diff.Divergences {
			data.Rows = append(data.Rows, row{
				Superstep: d.Superstep,
				ID:        d.ID,
				Fields:    fmt.Sprint(d.Fields),
				ValA:      pregel.ValueString(d.A.ValueAfter),
				ValB:      pregel.ValueString(d.B.ValueAfter),
			})
		}
	}
	render(w, "diff", data)
}

// --- JSON API ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) apiSupersteps(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	writeJSON(w, db.Supersteps())
}

func (s *Server) apiSuperstep(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
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
	captures := db.CapturesAt(n)
	st := db.StatusAt(n)
	out := map[string]any{
		"superstep":         n,
		"num_vertices":      meta.NumVertices,
		"num_edges":         meta.NumEdges,
		"aggregated":        aggs,
		"captures":          captureRows(captures),
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

func (s *Server) apiSearch(w http.ResponseWriter, r *http.Request, db *trace.Reader) {
	superstep, err := strconv.Atoi(r.FormValue("superstep"))
	if err != nil {
		superstep = -1
	}
	writeJSON(w, captureRows(db.Search(queryOf(r, superstep))))
}
