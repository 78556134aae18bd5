package serve

import (
	"context"
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

// newDaemon starts a daemon over an in-memory store behind httptest,
// running at most maxConcurrent jobs at once.
func newDaemon(t *testing.T, maxConcurrent int) (*Daemon, *httptest.Server) {
	t.Helper()
	sess, err := graft.NewSession(graft.SessionConfig{
		Store:             graft.NewStore(graft.NewMemFS(), "traces"),
		MaxConcurrentJobs: maxConcurrent,
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
	d, ts := newDaemon(t, 2)
	for _, row := range []struct{ id, seed, ctor string }{
		{"gc-default", "", "algorithms.NewGraphColoring(42)"},
		{"gc-seed7", `"seed":7,`, "algorithms.NewGraphColoring(7)"},
		// Seed 0 is a seed, not "use the default", in a submission as in
		// `graft run -seed 0`.
		{"gc-seed0", `"seed":0,`, "algorithms.NewGraphColoring(0)"},
		// A job run by the library into the daemon's store, as
		// `graft run -seed 0` does, reproduces at its seed too.
		{"gc-seed0-lib", "lib", "algorithms.NewGraphColoring(0)"},
	} {
		if row.seed == "lib" {
			alg, _ := algorithms.ByName("gc", 0, 10)
			ds, _ := graphgen.NamedDataset("bipartite-1M-3M", 0.0005, 0)
			g := ds.Build()
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
			if view.MasterAt(step) != nil {
				n++
			}
			code, body := get(t, ts, fmt.Sprintf("/job/%s/replaycheck?superstep=%d", row.id, step))
			if want := fmt.Sprintf("%d/%d captures replay identically", n, n); code != 200 || !strings.Contains(body, want) {
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
	_, ts := newDaemon(t, 2)
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

// TestServeRejectsHostileSubmissions: a submission that would take the
// daemon's memory — a worker count whose message lanes grow with its
// square, a graph scaled past the paper's size — is refused with 400
// before anything is built, and the daemon keeps serving.
func TestServeRejectsHostileSubmissions(t *testing.T) {
	_, ts := newDaemon(t, 2)
	for name, body := range map[string]string{
		"huge workers":   `{"job_id":"w","workers":200000}`,
		"negative scale": `{"job_id":"s","scale":-1}`,
		"huge scale":     `{"job_id":"h","dataset":"twitter","scale":1e9}`,
	} {
		start := time.Now()
		if code, _ := post(t, ts, "/api/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: answered in %v, want under 1 s", name, took)
		}
		if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
			t.Fatalf("after %s: /healthz = %d", name, code)
		}
	}
}

// TestServeBuildsGraphAfterAdmission: a submission is admitted before
// its graph exists. With the one running slot held, a twitter job at
// scale 0.005 (about 210k vertices and 2.5M edges, some 85 MB built) is
// answered 201 while the live heap stays flat, and canceled while
// queued it ends canceled without ever having built its graph. A
// dataset that is no name is refused before admission.
func TestServeBuildsGraphAfterAdmission(t *testing.T) {
	_, ts := newDaemon(t, 1)
	hold := `{"job_id":"hold","alg":"rw","dataset":"soc-Epinions","scale":0.001,"supersteps":2000000,"debug":"none"}`
	if code, _ := post(t, ts, "/api/jobs", hold); code != http.StatusCreated {
		t.Fatalf("submit hold = %d", code)
	}
	waitState(t, ts, "hold", "running")

	before := liveHeap()
	code, info := post(t, ts, "/api/jobs", `{"job_id":"big","alg":"cc","dataset":"twitter","scale":0.005,"debug":"none"}`)
	if grew := liveHeap() - before; grew > 16<<20 {
		t.Errorf("the live heap grew by %d MB across an admission", grew>>20)
	}
	if code != http.StatusCreated || info.State != "queued" {
		t.Fatalf("submit big = %d %+v, want 201 and queued", code, info)
	}
	if code, _ := post(t, ts, "/api/jobs/big/cancel", ""); code != http.StatusAccepted {
		t.Fatalf("cancel big = %d", code)
	}
	if info := waitState(t, ts, "big", "canceled"); !strings.Contains(info.Error, "canceled while queued") {
		t.Errorf("big ended %q, want canceled while queued", info.Error)
	}

	if code, _ := post(t, ts, "/api/jobs", `{"job_id":"passwd","dataset":"/etc/passwd"}`); code != http.StatusBadRequest {
		t.Errorf("a path as dataset: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/api/jobs/passwd"); code != http.StatusNotFound {
		t.Errorf("a refused submission became a job: status %d", code)
	}
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestServeRejectsOversizedBody: a submission larger than
// maxSubmitBytes is refused with 413 without being decoded into a job,
// and the daemon goes on serving the next submission and /healthz.
func TestServeRejectsOversizedBody(t *testing.T) {
	_, ts := newDaemon(t, 2)
	big := fmt.Sprintf(`{"job_id":"big","alg":"cc","scale":0.0005,"note":%q}`, strings.Repeat("x", 2<<20))
	if code, _ := post(t, ts, "/api/jobs", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB submission: status %d, want 413", code)
	}
	if code, _ := get(t, ts, "/api/jobs/big"); code != http.StatusNotFound {
		t.Errorf("the oversized submission became a job: status %d", code)
	}
	if code, _ := post(t, ts, "/api/jobs", `{"job_id":"small","alg":"cc","scale":0.0005}`); code != http.StatusCreated {
		t.Fatalf("valid submission after the oversized one = %d", code)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	waitState(t, ts, "small", "succeeded")
}

// TestServeCancelAndClose: cancel ends a running job as canceled, and
// Close returns only once no job is left running anywhere — no engine
// goroutine survives it.
func TestServeCancelAndClose(t *testing.T) {
	d, ts := newDaemon(t, 2)
	long := `{"job_id":"%s","alg":"rw","dataset":"soc-Epinions","scale":0.001,"supersteps":2000000,"debug":"none"}`
	// Queued jobs take free slots in no particular order, so rw-a runs
	// before the others are submitted: otherwise rw-b and rw-queued can
	// take both slots and leave it queued for good.
	for i, id := range []string{"rw-a", "rw-b", "rw-queued"} {
		if code, _ := post(t, ts, "/api/jobs", fmt.Sprintf(long, id)); code != http.StatusCreated {
			t.Fatalf("submit %s = %d", id, code)
		}
		if i == 0 {
			waitState(t, ts, "rw-a", "running")
		}
	}
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
	// Close has waited for every job, but an engine goroutine that has
	// run its wg.Done may not have returned yet. Look again for a bounded
	// while, as leak checkers do: one still inside the engine at the
	// deadline has leaked.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "graft/internal/pregel.") {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("a goroutine is still inside the engine 2s after Close:\n%s", stacks)
			break
		}
	}
	if code, _ := post(t, ts, "/api/jobs", fmt.Sprintf(long, "late")); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close = %d, want 503", code)
	}
}

// TestServeRestartedJobShowsOneHistory: a job restarted from a
// checkpoint shows its committed history, one row per superstep, in
// the daemon's status and on its dashboard.
func TestServeRestartedJobShowsOneHistory(t *testing.T) {
	d, ts := newDaemon(t, 1)
	const workers = 4
	j, err := d.session.SubmitAlgorithm(context.Background(), graphgen.RegularBipartite(60, 3), algorithms.NewPageRank(8, 0.85), graft.RunOptions{
		JobID:  "restarted",
		Store:  d.session.Store(),
		Debug:  &graft.DebugConfig{CaptureIDs: []graft.VertexID{0}},
		Engine: graft.EngineConfig{NumWorkers: workers, CheckpointEvery: 2, CheckpointFS: graft.NewMemFS(), FailureAt: graft.FailAt(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", res.Stats.Recoveries)
	}
	if info := waitState(t, ts, "restarted", "succeeded"); info.Supersteps != res.Stats.Supersteps {
		t.Errorf("GET /api/jobs/restarted: supersteps %d, Stats.Supersteps %d", info.Supersteps, res.Stats.Supersteps)
	}
	// Superstep 2 ran twice: before the crash at 3 and after the
	// restart from checkpoint 2.
	code, body := get(t, ts, "/job/restarted/metrics?superstep=2")
	_, table, found := strings.Cut(body, "Workers at superstep 2")
	table, _, _ = strings.Cut(table, "</table>")
	if rows := strings.Count(table, "<tr") - 1; code != http.StatusOK || !found || rows != workers {
		t.Errorf("dashboard: status %d, %d worker rows at superstep 2, want %d", code, rows, workers)
	}
}
