package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/graphgen"
)

// newDaemon starts a daemon over an in-memory store behind httptest.
func newDaemon(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	sess, err := graft.NewSession(graft.SessionConfig{
		Store:             graft.NewStore(graft.NewMemFS(), "traces"),
		MaxConcurrentJobs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(sess)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		d.Close()
	})
	return d, ts
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

func post(t *testing.T, ts *httptest.Server, path, body string) (int, JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("POST %s: undecodable reply: %v", path, err)
		}
	}
	return resp.StatusCode, info
}

// waitState polls a job's status until it reaches want (or any other
// terminal state, which fails the test).
func waitState(t *testing.T, ts *httptest.Server, id, want string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, ts, "/api/jobs/"+id)
		var info JobInfo
		if code != 200 || json.Unmarshal([]byte(body), &info) != nil {
			t.Fatalf("GET /api/jobs/%s = %d %s", id, code, body)
		}
		if info.State == want {
			return info
		}
		switch info.State {
		case "succeeded", "failed", "canceled":
			t.Fatalf("job %s ended %s (%s), want %s", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s, want %s", id, info.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeReproducesAndReplayChecks: the daemon's mounted GUI rebuilds
// each job's algorithm from its manifest, so a finished job's Reproduce
// Context names the real constructor with the seed the job ran at (not
// a TODO placeholder, not the default seed) and its replay check runs —
// every capture replaying as the cluster computed it.
func TestServeReproducesAndReplayChecks(t *testing.T) {
	d, ts := newDaemon(t)
	for _, row := range []struct{ id, seed, ctor string }{
		{"gc-default", "", "algorithms.NewGraphColoring(42)"},
		{"gc-seed7", `"seed":7,`, "algorithms.NewGraphColoring(7)"},
		// A submission's seed 0 means the default, `graft run -seed 0`
		// means 0: run that one into the store the way the CLI does.
		{"gc-seed0", "cli", "algorithms.NewGraphColoring(0)"},
	} {
		if row.seed == "cli" {
			alg, _ := algorithms.ByName("gc", 0, 10)
			g, _ := graphgen.BuildDataset("bipartite-1M-3M", 0.0005, 0)
			dc, _ := core.PresetConfig("DC-full", 0)
			if _, err := graft.RunAlgorithm(g, alg, graft.RunOptions{JobID: row.id, Supersteps: 10,
				Store: d.session.Store(), Debug: dc}); err != nil {
				t.Fatal(err)
			}
		} else {
			code, info := post(t, ts, "/api/jobs", fmt.Sprintf(
				`{"job_id":%q,%s"alg":"gc","dataset":"bipartite-1M-3M","scale":0.0005,"debug":"DC-full"}`, row.id, row.seed))
			if code != http.StatusCreated || info.JobID != row.id {
				t.Fatalf("submit = %d %+v", code, info)
			}
			waitState(t, ts, row.id, "succeeded")
		}

		view, err := d.session.Store().OpenReader(row.id)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, step := range view.Supersteps() {
			n := len(view.CapturesAt(step))
			if n == 0 {
				continue
			}
			code, body := get(t, ts, fmt.Sprintf("/job/%s/replaycheck?superstep=%d", row.id, step))
			if want := fmt.Sprintf("%d/%d captured vertices replay identically", n, n); code != 200 || !strings.Contains(body, want) {
				t.Fatalf("%s: replay check @%d = %d, want %q in\n%s", row.id, step, code, want, body)
			}
			checked += n
		}
		if checked == 0 {
			t.Fatal("DC-full captured nothing to replay")
		}

		id := view.CapturedVertexIDs()[0]
		step := view.CapturesOf(id)[0].Superstep
		code, body := get(t, ts, fmt.Sprintf("/job/%s/reproduce?superstep=%d&id=%d", row.id, step, id))
		if code != 200 || !strings.Contains(body, row.ctor+".Compute") {
			t.Errorf("%s: reproduce = %d, want %s.Compute in\n%s", row.id, code, row.ctor, body)
		}
		code, body = get(t, ts, fmt.Sprintf("/job/%s/reproduce-master?superstep=%d", row.id, step))
		if code != 200 || !strings.Contains(body, row.ctor+".Master") {
			t.Errorf("%s: reproduce-master = %d, want %s.Master in\n%s", row.id, code, row.ctor, body)
		}
	}
}

func TestServeRejectsBadSubmissions(t *testing.T) {
	_, ts := newDaemon(t)
	if code, _ := post(t, ts, "/api/jobs", `{"job_id":"ok","alg":"cc","scale":0.0005}`); code != http.StatusCreated {
		t.Fatalf("valid submit = %d", code)
	}
	for name, body := range map[string]string{
		"unknown alg":             `{"job_id":"x","alg":"no-such-alg"}`,
		"duplicate job_id":        `{"job_id":"ok","alg":"cc","scale":0.0005}`,
		"debugged without job_id": `{"alg":"cc","scale":0.0005}`,
		"unknown dataset":         `{"job_id":"y","dataset":"/etc/passwd"}`,
		"unknown debug preset":    `{"job_id":"z","debug":"DC-bogus"}`,
		"body that is not JSON":   `{"job_id":`,
	} {
		if code, _ := post(t, ts, "/api/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if code, _ := get(t, ts, "/api/jobs/ghost"); code != http.StatusNotFound {
		t.Errorf("status of an unknown job = %d, want 404", code)
	}
	waitState(t, ts, "ok", "succeeded")
}

// TestServeCancelAndClose: cancel ends a running job as canceled, and
// Close returns only once no job is left running anywhere — no engine
// goroutine survives it.
func TestServeCancelAndClose(t *testing.T) {
	d, ts := newDaemon(t)
	long := `{"job_id":"%s","alg":"rw","dataset":"soc-Epinions","scale":0.001,"supersteps":2000000,"debug":"none"}`
	for _, id := range []string{"rw-a", "rw-b", "rw-queued"} {
		if code, _ := post(t, ts, "/api/jobs", fmt.Sprintf(long, id)); code != http.StatusCreated {
			t.Fatalf("submit %s = %d", id, code)
		}
	}
	waitState(t, ts, "rw-a", "running")
	if code, _ := post(t, ts, "/api/jobs/rw-a/cancel", ""); code != http.StatusAccepted {
		t.Fatalf("cancel = %d", code)
	}
	if info := waitState(t, ts, "rw-a", "canceled"); !strings.Contains(info.Error, "canceled") {
		t.Errorf("canceled job reports error %q", info.Error)
	}
	if code, _ := post(t, ts, "/api/jobs/ghost/cancel", ""); code != http.StatusNotFound {
		t.Errorf("cancel of an unknown job = %d, want 404", code)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, j := range d.session.Jobs() {
		if !j.State().Terminal() {
			t.Errorf("job %s is %s after Close", j.ID(), j.State())
		}
	}
	// A runner may still be returning through its deferred wg.Done, so
	// look for what must be gone: any goroutine inside the engine.
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "graft/internal/pregel.") {
		t.Errorf("a goroutine is still inside the engine after Close:\n%s", stacks)
	}
	if code, _ := post(t, ts, "/api/jobs", fmt.Sprintf(long, "late")); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close = %d, want 503", code)
	}
}
