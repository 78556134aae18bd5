package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graft"
	"graft/internal/metrics"
	"graft/internal/serve"
	"graft/internal/trace"
)

// TestRunAndServeRunOneSpec: one graft.JobSpec, given to `graft run` as
// flags and to `graft serve` as a POST body, is one job — the same
// supersteps, the same stop reason, the same job.metrics (superstep
// rows and messages sent) and the same trace digest. (The
// daemon used to cap a job at its "supersteps" value, stopping graph
// coloring at 10 of its 27 supersteps and PageRank one short.)
func TestRunAndServeRunOneSpec(t *testing.T) {
	dir := t.TempDir()
	store, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := graft.NewSession(graft.SessionConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	d, err := serve.New(sess)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer d.Close()
	defer ts.Close()

	gc, pr := graft.DefaultJobSpec(), graft.DefaultJobSpec()
	gc.Alg, gc.Dataset, gc.Scale, gc.Debug = "gc", "bipartite-1M-3M", 0.0005, "DC-full"
	pr.Alg, pr.Scale, pr.Supersteps = "pagerank", 0.001, 5
	for _, spec := range []graft.JobSpec{gc, pr} {
		cli, daemon := spec, spec
		cli.JobID, daemon.JobID = "cli-"+spec.Alg, "serve-"+spec.Alg
		if err := cmdRun([]string{"-trace-dir", dir, "-job", cli.JobID, "-alg", cli.Alg,
			"-dataset", cli.Dataset, "-scale", fmt.Sprint(cli.Scale), "-seed", fmt.Sprint(cli.Seed),
			"-workers", fmt.Sprint(cli.Workers), "-supersteps", fmt.Sprint(cli.Supersteps), "-debug", cli.Debug,
		}); err != nil {
			t.Fatalf("graft run %+v: %v", cli, err)
		}

		body, err := json.Marshal(daemon)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST %s = %d", body, resp.StatusCode)
		}
		if _, err := sess.Job(daemon.JobID).Wait(context.Background()); err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}

		type outcome struct {
			supersteps int
			sent       int64
			reason     string
			digest     string
		}
		outcomes := map[string]outcome{}
		for _, id := range []string{cli.JobID, daemon.JobID} {
			jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath(id))
			if err != nil {
				t.Fatal(err)
			}
			r, err := store.OpenReader(id)
			if err != nil {
				t.Fatal(err)
			}
			outcomes[id] = outcome{len(jm.Supersteps), jm.Totals.MessagesSent, jm.Reason, trace.Digest(r)}
		}
		if c, s := outcomes[cli.JobID], outcomes[daemon.JobID]; c != s || c.supersteps == 0 || c.sent == 0 {
			t.Errorf("%s: graft run gives %+v, POST /api/jobs %+v", spec.Alg, c, s)
		}
	}
}
