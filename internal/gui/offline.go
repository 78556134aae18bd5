package gui

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"graft/internal/graphio"
	"graft/internal/pregel"
)

// Offline mode (paper §3.4): users construct small graphs — from
// scratch or from a premade menu — then export them as adjacency-list
// text for an end-to-end test, or as a test-code template that builds
// the graph programmatically.

func (s *Server) registerOffline(mux *http.ServeMux) {
	mux.HandleFunc("GET /offline/{$}", s.handleOfflineIndex)
	mux.HandleFunc("POST /offline/new", s.handleOfflineNew)
	mux.HandleFunc("POST /offline/premade", s.handleOfflinePremade)
	mux.HandleFunc("GET /offline/{name}", s.offlineGraph(s.handleOfflineView))
	mux.HandleFunc("POST /offline/{name}/vertex", s.offlineGraph(s.handleOfflineAddVertex))
	mux.HandleFunc("POST /offline/{name}/edge", s.offlineGraph(s.handleOfflineAddEdge))
	mux.HandleFunc("POST /offline/{name}/delete-vertex", s.offlineGraph(s.handleOfflineDeleteVertex))
	mux.HandleFunc("GET /offline/{name}/export.adjlist", s.offlineGraph(s.handleOfflineExport))
	mux.HandleFunc("GET /offline/{name}/export-test", s.offlineGraph(s.handleOfflineExportTest))
}

// offlineGraph adapts a handler of one offline graph. It holds mu for
// the whole handler: a graph is read and changed in place.
func (s *Server) offlineGraph(h func(http.ResponseWriter, *http.Request, string, *pregel.Graph)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		s.mu.Lock()
		defer s.mu.Unlock()
		g, ok := s.offline[name]
		if !ok {
			http.Error(w, fmt.Sprintf("no offline graph %q", name), http.StatusNotFound)
			return
		}
		h(w, r, name, g)
	}
}

func (s *Server) handleOfflineIndex(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Name            string
		Vertices, Edges int64
	}
	s.mu.Lock()
	var rows []row
	for name, g := range s.offline {
		rows = append(rows, row{name, g.NumVertices(), g.NumEdges()})
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	render(w, "offlineIndex", struct {
		page
		Graphs []row
	}{page{Title: "offline mode"}, rows})
}

func (s *Server) putOffline(name string, g *pregel.Graph) error {
	if name == "" || strings.ContainsAny(name, "/ ") {
		return fmt.Errorf("gui: bad graph name %q", name)
	}
	s.mu.Lock()
	s.offline[name] = g
	s.mu.Unlock()
	return nil
}

func (s *Server) handleOfflineNew(w http.ResponseWriter, r *http.Request) {
	if err := s.putOffline(r.FormValue("name"), pregel.NewGraph()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/offline/"+r.FormValue("name"), http.StatusSeeOther)
}

// maxPremadeVertices bounds a premade graph's size: the view draws
// every vertex in one SVG, and the graph is built on the request
// goroutine.
const maxPremadeVertices = 1000

// PremadeGraph builds one of the offline mode's menu graphs of about n
// vertices; n above maxPremadeVertices is an error.
func PremadeGraph(kind string, n int) (*pregel.Graph, error) {
	if n > maxPremadeVertices {
		return nil, fmt.Errorf("gui: premade graph size %d is over %d", n, maxPremadeVertices)
	}
	if n < 2 {
		n = 2
	}
	g := pregel.NewGraph()
	addN := func(count int) {
		for i := 0; i < count; i++ {
			g.AddVertex(pregel.VertexID(i), nil)
		}
	}
	und := func(a, b int) {
		_ = g.AddUndirectedEdge(pregel.VertexID(a), pregel.VertexID(b), nil)
	}
	switch kind {
	case "path":
		addN(n)
		for i := 1; i < n; i++ {
			und(i-1, i)
		}
	case "cycle":
		addN(n)
		for i := 0; i < n; i++ {
			und(i, (i+1)%n)
		}
	case "star":
		addN(n)
		for i := 1; i < n; i++ {
			und(0, i)
		}
	case "bipartite":
		half := n / 2
		addN(2 * half)
		for i := 0; i < half; i++ {
			for k := 0; k < 2; k++ {
				und(i, half+(i+k)%half)
			}
		}
	case "triangle":
		addN(3)
		und(0, 1)
		und(1, 2)
		und(0, 2)
	case "two-triangles":
		addN(6)
		und(0, 1)
		und(1, 2)
		und(0, 2)
		und(3, 4)
		und(4, 5)
		und(3, 5)
	default:
		return nil, fmt.Errorf("gui: unknown premade graph %q", kind)
	}
	g.SortAllEdges()
	return g, nil
}

func (s *Server) handleOfflinePremade(w http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.FormValue("n"))
	g, err := PremadeGraph(r.FormValue("kind"), n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name := r.FormValue("name")
	if name == "" {
		name = "premade"
	}
	if err := s.putOffline(name, g); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/offline/"+name, http.StatusSeeOther)
}

func (s *Server) handleOfflineView(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	type row struct {
		ID    pregel.VertexID
		Value string
		Edges string
	}
	var rows []row
	g.Each(func(v *pregel.Vertex) {
		var parts []string
		for _, e := range v.Edges() {
			if e.Value != nil {
				parts = append(parts, fmt.Sprintf("%d (%s)", e.Target, pregel.ValueString(e.Value)))
			} else {
				parts = append(parts, fmt.Sprintf("%d", e.Target))
			}
		}
		rows = append(rows, row{v.ID(), pregel.ValueString(v.Value()), strings.Join(parts, ", ")})
	})
	render(w, "offlineGraph", struct {
		page
		Name string
		SVG  template.HTML
		Rows []row
	}{page{Title: "offline graph " + name}, name, builderSVG(g), rows})
}

// parseOfflineValue interprets a form value: empty means nil, integers
// become LongValue, other numbers DoubleValue, anything else Text.
func parseOfflineValue(s string) pregel.Value {
	if s == "" {
		return nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return pregel.NewLong(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return pregel.NewDouble(f)
	}
	return pregel.NewText(s)
}

func (s *Server) handleOfflineAddVertex(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	if v := g.Vertex(pregel.VertexID(id)); v != nil {
		v.SetValue(parseOfflineValue(r.FormValue("value")))
	} else {
		g.AddVertex(pregel.VertexID(id), parseOfflineValue(r.FormValue("value")))
	}
	http.Redirect(w, r, "/offline/"+name, http.StatusSeeOther)
}

func (s *Server) handleOfflineAddEdge(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	from, err1 := strconv.ParseInt(r.FormValue("from"), 10, 64)
	to, err2 := strconv.ParseInt(r.FormValue("to"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "bad edge endpoints", http.StatusBadRequest)
		return
	}
	var value pregel.Value
	if ws := r.FormValue("weight"); ws != "" {
		f, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			http.Error(w, "bad weight", http.StatusBadRequest)
			return
		}
		value = pregel.NewDouble(f)
	}
	g.EnsureVertex(pregel.VertexID(from), nil)
	g.EnsureVertex(pregel.VertexID(to), nil)
	var err error
	if r.FormValue("undirected") != "" {
		err = g.AddUndirectedEdge(pregel.VertexID(from), pregel.VertexID(to), value)
	} else {
		err = g.AddEdge(pregel.VertexID(from), pregel.VertexID(to), value)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/offline/"+name, http.StatusSeeOther)
}

func (s *Server) handleOfflineDeleteVertex(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	id, err := strconv.ParseInt(r.FormValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad vertex id", http.StatusBadRequest)
		return
	}
	// Rebuild without the vertex (and without edges to it): the
	// builder favors simplicity over efficiency at test-graph sizes.
	fresh := pregel.NewGraph()
	g.Each(func(v *pregel.Vertex) {
		if v.ID() == pregel.VertexID(id) {
			return
		}
		fresh.AddVertex(v.ID(), pregel.CloneValue(v.Value()))
	})
	g.Each(func(v *pregel.Vertex) {
		if v.ID() == pregel.VertexID(id) {
			return
		}
		for _, e := range v.Edges() {
			if e.Target == pregel.VertexID(id) {
				continue
			}
			_ = fresh.AddEdge(v.ID(), e.Target, pregel.CloneValue(e.Value))
		}
	})
	s.offline[name] = fresh
	http.Redirect(w, r, "/offline/"+name, http.StatusSeeOther)
}

func (s *Server) handleOfflineExport(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "# graph %q exported from Graft offline mode\n", name)
	if err := graphio.WriteAdjacency(w, g); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleOfflineExportTest(w http.ResponseWriter, r *http.Request, name string, g *pregel.Graph) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, EndToEndTestCode(name, g))
}

// EndToEndTestCode renders a Go test template that constructs g
// programmatically, runs a computation from the first superstep to
// termination and logs the final vertex values — the end-to-end test
// skeleton of paper §3.4.
func EndToEndTestCode(name string, g *pregel.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, `// Code generated by Graft's offline mode (graph %q); edit freely.
package graftendtoend

import (
	"testing"

	"graft/internal/pregel"
)

func TestEndToEnd(t *testing.T) {
	g := pregel.NewGraph()
`, name)
	for _, id := range g.VertexIDs() {
		fmt.Fprintf(&b, "\tg.AddVertex(%d, %s)\n", int64(id), valueLiteral(g.Vertex(id).Value()))
	}
	for _, id := range g.VertexIDs() {
		for _, e := range g.Vertex(id).Edges() {
			if e.Value == nil {
				fmt.Fprintf(&b, "\tg.Vertex(%d).AddEdge(pregel.Edge{Target: %d})\n", int64(id), int64(e.Target))
			} else {
				fmt.Fprintf(&b, "\tg.Vertex(%d).AddEdge(pregel.Edge{Target: %d, Value: %s})\n",
					int64(id), int64(e.Target), valueLiteral(e.Value))
			}
		}
	}
	b.WriteString(`
	// TODO: set comp to the computation under test, e.g.
	//   comp := algorithms.NewConnectedComponents().Compute
	var comp pregel.Computation
	if comp == nil {
		t.Skip("set comp to the computation under test")
	}
	stats, err := pregel.NewJob(g, comp, pregel.Config{MaxSupersteps: 10000}).Run()
	if err != nil {
		t.Fatalf("job failed: %v", err)
	}
	t.Logf("terminated after %d supersteps (%v)", stats.Supersteps, stats.Reason)
	// TODO: replace the log below with assertions on the expected
	// final vertex values.
	g.Each(func(v *pregel.Vertex) {
		t.Logf("vertex %d = %s", v.ID(), pregel.ValueString(v.Value()))
	})
}
`)
	return b.String()
}

// valueLiteral renders builtin scalar values as constructor literals
// for the end-to-end template (the offline builder only creates
// builtin scalars).
func valueLiteral(v pregel.Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case *pregel.LongValue:
		return fmt.Sprintf("pregel.NewLong(%d)", x.Get())
	case *pregel.DoubleValue:
		return fmt.Sprintf("pregel.NewDouble(%g)", x.Get())
	case *pregel.TextValue:
		return fmt.Sprintf("pregel.NewText(%q)", x.Get())
	case *pregel.BoolValue:
		return fmt.Sprintf("pregel.NewBool(%v)", x.Get())
	default:
		return fmt.Sprintf("pregel.NewText(%q)", v.String())
	}
}

// builderSVG draws an offline graph: all vertices on one circle.
func builderSVG(g *pregel.Graph) template.HTML {
	ids := g.VertexIDs()
	if len(ids) == 0 {
		return template.HTML(`<p class="muted">Empty graph: add vertices below.</p>`)
	}
	if len(ids) > 64 {
		return template.HTML(`<p class="muted">Graph too large to draw; offline mode targets small test graphs.</p>`)
	}
	const w, h = 640.0, 480.0
	cx, cy, r := w/2, h/2, math.Min(w, h)/2-50
	type pos struct{ x, y float64 }
	positions := map[pregel.VertexID]pos{}
	for i, id := range ids {
		a := 2 * math.Pi * float64(i) / float64(len(ids))
		positions[id] = pos{cx + r*math.Cos(a), cy + r*math.Sin(a)}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" style="border:1px solid #ccc;background:white">`, w, h)
	for _, id := range ids {
		from := positions[id]
		for _, e := range g.Vertex(id).Edges() {
			to, ok := positions[e.Target]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#999"/>`,
				from.x, from.y, to.x, to.y)
			if e.Value != nil {
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" fill="#777">%s</text>`,
					(from.x+to.x)/2, (from.y+to.y)/2-3, escapeSVG(pregel.ValueString(e.Value)))
			}
		}
	}
	for _, id := range ids {
		p := positions[id]
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="18" fill="#cde" stroke="#335"/>`, p.x, p.y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle" font-weight="bold">%d</text>`,
			p.x, p.y-1, int64(id))
		if v := g.Vertex(id).Value(); v != nil {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="9" text-anchor="middle">%s</text>`,
				p.x, p.y+9, escapeSVG(truncate(pregel.ValueString(v), 10)))
		}
	}
	fmt.Fprint(&b, `</svg>`)
	return template.HTML(b.String())
}
