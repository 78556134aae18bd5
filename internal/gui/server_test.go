package gui

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// TestOfflineConcurrentEditAndExport: clients adding vertices to an
// offline graph while others export and view it must not race on the
// graph (this test is meant for -race; without the lock it can also
// kill the process with a concurrent map write).
func TestOfflineConcurrentEditAndExport(t *testing.T) {
	ts := httptest.NewServer(NewServer(trace.NewStore(dfs.NewMemFS(), "traces")).Handler())
	defer ts.Close()
	client := ts.Client()
	resp, err := client.PostForm(ts.URL+"/offline/new", url.Values{"name": {"busy"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	const n = 40
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				resp, err := client.PostForm(ts.URL+"/offline/busy/vertex", url.Values{"id": {strconv.Itoa(i)}, "value": {"1"}})
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for _, p := range []string{"/offline/busy/export.adjlist", "/offline/busy/export-test", "/offline/busy"} {
					resp, err := client.Get(ts.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	_, adj := get(t, ts, "/offline/busy/export.adjlist")
	if got := strings.Count(adj, "\n") - 1; got != n {
		t.Errorf("export has %d vertex lines, want %d:\n%s", got, n, adj)
	}
}

// TestRunningJobPagesFollowTheJob: a page opened while a job runs must
// not pin the trace as it was then; once the job has finished its pages
// show the final superstep.
func TestRunningJobPagesFollowTheJob(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	g := graphgen.RegularBipartite(12, 2)
	const holdAt, last = 3, 6
	held, release := make(chan struct{}), make(chan struct{})
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		if ctx.Superstep() == holdAt && v.ID() == 0 {
			close(held)
			<-release
		}
		if ctx.Superstep() == last {
			v.VoteToHalt()
		}
		return nil
	})
	session, err := core.Attach(context.Background(), store, trace.JobMeta{JobID: "live", Algorithm: "live", NumWorkers: 1}, g,
		core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := pregel.NewJob(g, session.Instrument(comp), pregel.Config{NumWorkers: 1, Listener: session}).Run()
		done <- err
	}()
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()

	<-held
	final := fmt.Sprintf("Superstep %d / %d", last, last)
	code, body := get(t, ts, "/job/live/nodelink?superstep=99")
	if code != http.StatusOK || strings.Contains(body, final) {
		t.Fatalf("while held at superstep %d: status %d, final superstep shown: %v", holdAt, code, strings.Contains(body, final))
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts, "/job/live/nodelink?superstep=99")
	mustContain(t, body, final)
}

// TestReproduceSubgraphModeTrace: in a subgraph-mode trace the
// Reproduce buttons emit the test of the component holding the vertex,
// built with the packaged algorithm's subgraph port, which the server
// resolves from the manifest without AttachAlgorithms.
func TestReproduceSubgraphModeTrace(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	alg := algorithms.NewConnectedComponents()
	g := graphgen.RegularBipartite(20, 3)
	session, err := core.Attach(context.Background(), store, trace.JobMeta{JobID: "sg", Algorithm: alg.Name, NumWorkers: 2, ComputeMode: "subgraph"}, g,
		core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pregel.NewSubgraphJob(g, session.InstrumentSubgraph(alg.Subgraph),
		pregel.Config{NumWorkers: 2, Listener: session, MaxSupersteps: alg.MaxSupersteps}).Run(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	db, err := srv.db("sg")
	if err != nil {
		t.Fatal(err)
	}
	id := db.CapturedVertexIDs()[0]
	history := db.CapturesOf(id)

	code, body := get(t, ts, fmt.Sprintf("/job/sg/reproduce?superstep=%d&id=%d", history[0].Superstep, id))
	if code != http.StatusOK {
		t.Fatalf("reproduce: status %d\n%s", code, body)
	}
	mustContain(t, body, "func TestReproduceSubgraph", "algorithms.NewConnectedComponents().Subgraph", "repro.MockSubgraphContext")
	if strings.Contains(body, "TestReproduceVertex") {
		t.Errorf("subgraph-mode trace got a vertex-mode test:\n%s", body)
	}

	_, body = get(t, ts, fmt.Sprintf("/job/sg/reproduce-suite?id=%d", id))
	if got := strings.Count(body, "func TestReproduceSubgraph"); got != len(history) {
		t.Errorf("suite has %d subgraph tests, want one per captured superstep (%d):\n%s", got, len(history), body)
	}
}
