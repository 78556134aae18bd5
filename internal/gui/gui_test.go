package gui

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// newTestServer builds a store holding two debugged runs — the buggy
// graph-coloring scenario and the overflowing random-walk scenario —
// and serves the GUI over them.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")

	runJob := func(jobID string, alg *algorithms.Algorithm, g *pregel.Graph, dc core.DebugConfig) {
		session, err := core.Attach(store, core.Options{
			JobID: jobID, Algorithm: alg.Name, NumWorkers: 2,
		}, g, dc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pregel.Config{
			NumWorkers:    2,
			Listener:      session,
			Master:        session.InstrumentMaster(alg.Master),
			Combiner:      alg.Combiner,
			MaxSupersteps: alg.MaxSupersteps,
		}
		job := pregel.NewJob(g, session.Instrument(alg.Compute), cfg)
		for _, spec := range alg.Aggregators {
			job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
		}
		_, _ = job.Run() // exception jobs are allowed to fail
	}

	runJob("gc-demo", algorithms.NewBuggyGraphColoring(42), graphgen.RegularBipartite(40, 3),
		core.DebugConfig{NumRandomCaptures: 6, RandomSeed: 3, CaptureNeighbors: true})
	runJob("rw-demo", algorithms.NewRandomWalk16(9, 8), graphgen.WebGraph(2000, 5, 11),
		core.DebugConfig{MessageConstraint: algorithms.NonNegativeRWMessages})

	srv := NewServer(store)
	srv.AttachAlgorithms(func(meta trace.JobMeta) (*algorithms.Algorithm, repro.GenSpec) {
		if meta.Algorithm != "gc-buggy" {
			return nil, repro.GenSpec{}
		}
		return algorithms.NewBuggyGraphColoring(42), repro.GenSpec{
			ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
			MasterExpr:      "algorithms.NewBuggyGraphColoring(42).Master",
			ExtraImports:    []string{"graft/internal/algorithms"},
			Assert:          true,
		}
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func mustContain(t *testing.T, body string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("response missing %q", want)
		}
	}
}

func TestJobListPage(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "gc-demo", "rw-demo", "gc-buggy", "rw16", "Offline mode")
}

func TestNodeLinkView(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/job/gc-demo/nodelink?superstep=1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body,
		"<svg", "Superstep 1",
		"Next superstep", "Previous superstep",
		`class="status`,                   // M/V/E boxes
		"/job/gc-demo/vertex?superstep=1", // clickable vertices
		"phase = ",                        // aggregator panel
	)
}

func TestNodeLinkDimsHaltedVertices(t *testing.T) {
	ts, srv := newTestServer(t)
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	// Find a superstep where a captured vertex has halted (colored).
	found := false
	for _, s := range db.Supersteps() {
		for _, c := range db.CapturesAt(s) {
			if c.HaltedAfter {
				code, body := get(t, ts, "/job/gc-demo/nodelink?superstep="+strconv.Itoa(s))
				if code != 200 {
					t.Fatalf("status %d", code)
				}
				mustContain(t, body, `opacity="0.35"`)
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no halted captured vertex in this trace")
	}
}

func TestTabularViewAndSearch(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/job/gc-demo/tabular?superstep=0")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "Captured because", "Reproduce Vertex Context", "random")

	// Search narrowing by vertex ID returns exactly one row.
	_, body = get(t, ts, "/job/gc-demo/tabular?superstep=0&value=TENTATIVELY")
	if !strings.Contains(body, "TENTATIVELY_IN_SET") {
		t.Error("value search found nothing")
	}
	_, body = get(t, ts, "/job/gc-demo/tabular?superstep=0&value=NO_SUCH_VALUE")
	mustContain(t, body, "0 captured vertices match")
}

func TestViolationsView(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/job/rw-demo/violations?all=1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "Violations and exceptions", "message", "Reproduce Vertex Context")
	// The overflow produces negative message values in the table.
	if !strings.Contains(body, "<td>-") {
		t.Error("no negative message value shown")
	}
}

func TestVertexDetailView(t *testing.T) {
	ts, srv := newTestServer(t)
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	c := db.CapturesAt(1)[0]
	code, body := get(t, ts, "/job/gc-demo/vertex?superstep=1&id="+strconv.Itoa(int(c.ID)))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body,
		"Value before compute", "Value after compute",
		"Out-edges", "Incoming messages", "Outgoing messages",
		"Reproduce Vertex Context")

	code, _ = get(t, ts, "/job/gc-demo/vertex?superstep=1&id=99999")
	if code != 404 {
		t.Errorf("uncaptured vertex: status %d", code)
	}
}

func TestMasterView(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/job/gc-demo/master?superstep=1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "master.compute at superstep 1",
		"SELECTION", "CONFLICT-RESOLUTION",
		"SetAggregated calls", "Reproduce Master Context")

	// rw-demo has no master.
	_, body = get(t, ts, "/job/rw-demo/master?superstep=1")
	mustContain(t, body, "No master computation")
}

func TestReproduceEndpoints(t *testing.T) {
	ts, srv := newTestServer(t)
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	c := db.CapturesAt(1)[0]
	code, body := get(t, ts, "/job/gc-demo/reproduce?superstep=1&id="+strconv.Itoa(int(c.ID)))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "func TestReproduceVertex",
		"algorithms.NewBuggyGraphColoring(42).Compute", "repro.MockContext")

	code, body = get(t, ts, "/job/gc-demo/reproduce-master?superstep=1")
	if code != 200 {
		t.Fatalf("master status %d", code)
	}
	mustContain(t, body, "func TestReproduceMasterSuperstep1")

	// Without a registered spec, the rw job gets a placeholder.
	rwdb, err := srv.db("rw-demo")
	if err != nil {
		t.Fatal(err)
	}
	rc := rwdb.CapturesAt(rwdb.Supersteps()[0])
	if len(rc) == 0 {
		// find any superstep with captures
		for _, s := range rwdb.Supersteps() {
			if len(rwdb.CapturesAt(s)) > 0 {
				rc = rwdb.CapturesAt(s)
				break
			}
		}
	}
	if len(rc) > 0 {
		code, body = get(t, ts, "/job/rw-demo/reproduce?superstep="+strconv.Itoa(rc[0].Superstep)+"&id="+strconv.Itoa(int(rc[0].ID)))
		if code != 200 {
			t.Fatalf("rw reproduce status %d", code)
		}
		mustContain(t, body, "var comp pregel.Computation", "TODO")
	}

	code, _ = get(t, ts, "/job/gc-demo/reproduce?superstep=1&id=99999")
	if code != 404 {
		t.Errorf("missing capture: status %d", code)
	}
}

func TestReproduceSuiteEndpoint(t *testing.T) {
	ts, srv := newTestServer(t)
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	id := db.CapturedVertexIDs()[0]
	code, body := get(t, ts, "/job/gc-demo/reproduce-suite?id="+strconv.Itoa(int(id)))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	history := db.CapturesOf(id)
	if got := strings.Count(body, "func TestReproduceVertex"); got != len(history) {
		t.Errorf("suite has %d tests, want %d", got, len(history))
	}
	code, _ = get(t, ts, "/job/gc-demo/reproduce-suite?id=99999")
	if code != 404 {
		t.Errorf("missing vertex: status %d", code)
	}
}

func TestHistoryView(t *testing.T) {
	ts, srv := newTestServer(t)
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	id := db.CapturedVertexIDs()[0]
	code, body := get(t, ts, "/job/gc-demo/history?id="+strconv.Itoa(int(id)))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	history := db.CapturesOf(id)
	if got := strings.Count(body, `class="reproduce" href="/job/gc-demo/reproduce?superstep=`); got != len(history) {
		t.Errorf("history rows = %d, want %d", got, len(history))
	}
	mustContain(t, body, "across supersteps", "Generate test suite")

	code, _ = get(t, ts, "/job/gc-demo/history?id=99999")
	if code != 404 {
		t.Errorf("uncaptured vertex: status %d", code)
	}
}

func TestReplayCheckView(t *testing.T) {
	ts, srv := newTestServer(t)

	code, body := get(t, ts, "/job/gc-demo/replaycheck?superstep=1")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if strings.Contains(body, "DIVERGED") {
		t.Errorf("deterministic algorithm diverged on replay:\n%s", body)
	}
	db, err := srv.db("gc-demo")
	if err != nil {
		t.Fatal(err)
	}
	n := len(db.CapturesAt(1)) + 1 // the vertices and the master
	mustContain(t, body, "Replay check", "master</a>",
		strconv.Itoa(n)+"/"+strconv.Itoa(n)+" captures replay identically")

	// Without a registered computation the view degrades gracefully.
	_, body = get(t, ts, "/job/rw-demo/replaycheck?superstep=1")
	mustContain(t, body, "replay checking is unavailable")
}

func TestJSONAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts, "/api/jobs")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var jobs []string
	if err := json.Unmarshal([]byte(body), &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %v", jobs)
	}

	_, body = get(t, ts, "/api/job/gc-demo/supersteps")
	var steps []int
	if err := json.Unmarshal([]byte(body), &steps); err != nil {
		t.Fatal(err)
	}
	if len(steps) < 4 || steps[0] != 0 {
		t.Fatalf("supersteps = %v", steps)
	}

	_, body = get(t, ts, "/api/job/gc-demo/superstep/1")
	var ss map[string]any
	if err := json.Unmarshal([]byte(body), &ss); err != nil {
		t.Fatal(err)
	}
	if ss["superstep"].(float64) != 1 {
		t.Errorf("superstep = %v", ss["superstep"])
	}
	if _, ok := ss["aggregated"].(map[string]any)["phase"]; !ok {
		t.Error("aggregated phase missing")
	}
	if len(ss["captures"].([]any)) == 0 {
		t.Error("no captures in JSON")
	}

	_, body = get(t, ts, "/api/job/rw-demo/search?message=-")
	var rows []map[string]any
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Error("search for negative messages found nothing")
	}

	code, _ = get(t, ts, "/api/job/nope/supersteps")
	if code != 404 {
		t.Errorf("unknown job: status %d", code)
	}
}

func TestDiffView(t *testing.T) {
	ts, _ := newTestServer(t)
	// The form renders without jobs selected.
	code, body := get(t, ts, "/diff")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "Compare job")

	// Diffing a job against itself: no divergences.
	code, body = get(t, ts, "/diff?a=gc-demo&b=gc-demo")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "No divergences")

	// Diffing different jobs: disjoint capture sets are reported.
	_, body = get(t, ts, "/diff?a=gc-demo&b=rw-demo")
	mustContain(t, body, "Captured only in")

	code, _ = get(t, ts, "/diff?a=gc-demo&b=missing")
	if code != 404 {
		t.Errorf("missing job: status %d", code)
	}
}

func TestOfflineBuilderFlow(t *testing.T) {
	ts, _ := newTestServer(t)
	client := ts.Client()

	// Create a graph.
	resp, err := client.PostForm(ts.URL+"/offline/new", url.Values{"name": {"mini"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	post := func(path string, vals url.Values) {
		t.Helper()
		resp, err := client.PostForm(ts.URL+path, vals)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 { // after redirect
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	post("/offline/mini/vertex", url.Values{"id": {"1"}, "value": {"10"}})
	post("/offline/mini/vertex", url.Values{"id": {"2"}, "value": {"hello"}})
	post("/offline/mini/edge", url.Values{"from": {"1"}, "to": {"2"}, "weight": {"2.5"}, "undirected": {"1"}})
	post("/offline/mini/edge", url.Values{"from": {"2"}, "to": {"3"}}) // directed, creates vertex 3

	code, body := get(t, ts, "/offline/mini")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "<svg", "hello", "2.5")

	// Adjacency export round-trips the structure.
	_, adj := get(t, ts, "/offline/mini/export.adjlist")
	mustContain(t, adj, "1 2:2.5", "2 1:2.5 3", "3")

	// End-to-end test template.
	_, code2 := get(t, ts, "/offline/mini/export-test")
	mustContain(t, code2,
		"func TestEndToEnd", "g.AddVertex(1, pregel.NewLong(10))",
		`g.AddVertex(2, pregel.NewText("hello"))`,
		"pregel.Edge{Target: 2, Value: pregel.NewDouble(2.5)}",
		"pregel.NewJob")

	// Delete a vertex; its edges disappear.
	post("/offline/mini/delete-vertex", url.Values{"id": {"2"}})
	_, adj = get(t, ts, "/offline/mini/export.adjlist")
	if strings.Contains(adj, "2:2.5") || strings.Contains(adj, "\n2 ") {
		t.Errorf("vertex 2 still present:\n%s", adj)
	}
}

func TestOfflinePremadeGraphs(t *testing.T) {
	ts, _ := newTestServer(t)
	client := ts.Client()
	for _, kind := range []string{"path", "cycle", "star", "bipartite", "triangle", "two-triangles"} {
		resp, err := client.PostForm(ts.URL+"/offline/premade",
			url.Values{"kind": {kind}, "n": {"6"}, "name": {"pre-" + kind}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		code, body := get(t, ts, "/offline/pre-"+kind)
		if code != 200 {
			t.Fatalf("%s: status %d", kind, code)
		}
		mustContain(t, body, "<svg")
	}
	// An unknown kind and a size over the bound are rejected.
	for _, form := range []url.Values{
		{"kind": {"mobius"}, "n": {"4"}},
		{"kind": {"path"}, "n": {strconv.Itoa(maxPremadeVertices + 1)}, "name": {"huge"}},
	} {
		resp, err := client.PostForm(ts.URL+"/offline/premade", form)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("premade %v: status %d, want 400", form, resp.StatusCode)
		}
	}
}

func TestPremadeGraphShapes(t *testing.T) {
	cases := []struct {
		kind     string
		n        int
		vertices int64
		edges    int64
	}{
		{"path", 5, 5, 8},
		{"cycle", 5, 5, 10},
		{"star", 5, 5, 8},
		{"triangle", 0, 3, 6},
		{"two-triangles", 0, 6, 12},
		{"bipartite", 6, 6, 12},
	}
	for _, c := range cases {
		g, err := PremadeGraph(c.kind, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices() != c.vertices || g.NumEdges() != c.edges {
			t.Errorf("%s(%d): %d vertices %d edges, want %d/%d",
				c.kind, c.n, g.NumVertices(), g.NumEdges(), c.vertices, c.edges)
		}
	}
}

func TestSuperstepClamping(t *testing.T) {
	ts, _ := newTestServer(t)
	// Out-of-range supersteps clamp rather than error.
	code, body := get(t, ts, "/job/gc-demo/nodelink?superstep=99999")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "Superstep ") {
		t.Error("clamped view did not render")
	}
	code, _ = get(t, ts, "/job/gc-demo/nodelink?superstep=-4")
	if code != 200 {
		t.Fatalf("negative superstep: status %d", code)
	}
}

func TestValueColorStable(t *testing.T) {
	if valueColor("COLORED(1)") != valueColor("COLORED(1)") {
		t.Error("same value maps to different colors")
	}
	if valueColor("COLORED(1)") == valueColor("COLORED(2)") {
		t.Error("different values collide (unlucky hash); pick different test values")
	}
}

// TestLegacyLayoutIsOneLineError: a job left by a build that wrote
// whole-file traces is refused by name, in one line, not half-rendered.
func TestLegacyLayoutIsOneLineError(t *testing.T) {
	ts, srv := newTestServer(t)
	manifest := `{"job_id": "old", "algorithm": "sp", "num_workers": 1}`
	if err := dfs.WriteFile(srv.store.FS, "traces/old/job.meta", []byte(manifest)); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts, "/job/old/tabular")
	body = strings.TrimSpace(body)
	if code != 404 || !strings.Contains(body, "unsupported trace layout") || !strings.Contains(body, `"old"`) ||
		strings.Contains(body, "\n") {
		t.Errorf("legacy job: status %d, body %q; want one line naming the job and the layout", code, body)
	}
}

// TestNondeterministicCaptureIsSurfaced: a capture whose recording
// re-run did not end as the job's own compute did carries
// trace.ReasonNondeterministic; the vertex page shows it as a badge and
// the replay check marks the row.
func TestNondeterministicCaptureIsSurfaced(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	g := graphgen.RegularBipartite(12, 2)
	calls := map[pregel.VertexID]int{} // one worker
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		calls[v.ID()]++
		v.SetValue(pregel.NewLong(int64(v.ID())))
		if calls[v.ID()] == 1 || v.ID() != 4 { // vertex 4 stays awake when run again
			v.VoteToHalt()
		}
		return nil
	})
	session, err := core.Attach(store, core.Options{JobID: "fickle", Algorithm: "fickle", NumWorkers: 1}, g,
		core.DebugConfig{VertexValueConstraint: func(v pregel.Value, _ pregel.VertexID, _ int) bool {
			return v.(*pregel.LongValue).Get() < 4
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pregel.NewJob(g, session.Instrument(comp), pregel.Config{NumWorkers: 1, Listener: session}).Run(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.AttachAlgorithms(func(trace.JobMeta) (*algorithms.Algorithm, repro.GenSpec) {
		return &algorithms.Algorithm{Compute: comp}, repro.GenSpec{}
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const badge = `title="the outgoing messages below come from a re-run`
	code, body := get(t, ts, "/job/fickle/vertex?superstep=0&id=4")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mustContain(t, body, "vertex-constraint&#43;nondeterministic", badge)
	_, body = get(t, ts, "/job/fickle/vertex?superstep=0&id=5")
	if strings.Contains(body, "nondeterministic") {
		t.Error("vertex 5 re-ran the same way and must not be flagged")
	}

	_, body = get(t, ts, "/job/fickle/replaycheck?superstep=0")
	if got := strings.Count(body, "(captured nondeterministic)"); got != 1 {
		t.Errorf("replay check marks %d rows, want vertex 4 alone:\n%s", got, body)
	}
}
