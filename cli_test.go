package graft

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// graftBin is cmd/graft built once per test run (removed by TestMain).
var graftBin struct {
	once sync.Once
	dir  string
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if graftBin.dir != "" {
		os.RemoveAll(graftBin.dir)
	}
	os.Exit(code)
}

// buildGraft returns the path of the graft binary, skipping the test
// under -short or without a toolchain.
func buildGraft(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	graftBin.once.Do(func() {
		if graftBin.dir, graftBin.err = os.MkdirTemp("", "graft-cli-"); graftBin.err != nil {
			return
		}
		graftBin.path = filepath.Join(graftBin.dir, "graft")
		cmd := exec.Command(goBin, "build", "-o", graftBin.path, "./cmd/graft")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			graftBin.err = fmt.Errorf("go build ./cmd/graft: %v\n%s", err, out)
		}
	})
	if graftBin.err != nil {
		t.Fatal(graftBin.err)
	}
	return graftBin.path
}

// readJSON decodes one JSON file under dir.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func sum(row any) float64 {
	var n float64
	for _, x := range row.([]any) {
		n += x.(float64)
	}
	return n
}

// TestCLISmoke is what CI's per-feature smoke jobs used to be: each row
// is one `graft` invocation with the substrings its output must (and
// must not) hold and an optional check of the files it left. Rows run
// in order in one directory, so a later row may read an earlier row's
// trace.
func TestCLISmoke(t *testing.T) {
	bin := buildGraft(t)
	dir := t.TempDir()
	pr := []string{"run", "-alg", "pagerank", "-dataset", "soc-Epinions", "-scale", "0.001", "-supersteps", "5"}
	with := func(base []string, more ...string) []string { return append(append([]string{}, base...), more...) }
	// A lane directory that is a file: the manifest is written, no
	// segment can be.
	if err := os.MkdirAll(filepath.Join(dir, "traces", "unwritable"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "traces", "unwritable", "worker_00"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name  string
		args  []string
		exit  int // the exit status wanted
		wants []string
		never []string
		check func(t *testing.T, out string)
	}{
		// Placement is fixed at load: the rebalancer and its flags are gone.
		{name: "-rebalance-skew is gone", args: with(pr, "-rebalance-skew", "1.2"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-rebalance-objective is gone", args: with(pr, "-rebalance-objective", "edgecut"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-rebalance-max-moves is gone", args: with(pr, "-rebalance-max-moves", "8"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "locality partitioner", args: []string{"run", "-alg", "cc", "-dataset", "web-BS", "-scale", "0.002", "-debug", "none", "-partitioner", "locality"},
			wants: []string{"finished:", "placement: partitioner=locality"}},
		{name: "async capture", args: with(pr, "-debug", "DC-sp", "-trace-dir", "traces", "-job", "pr-capture"),
			wants: []string{"finished:", "captures:"}, never: []string{"dropped"},
			check: func(t *testing.T, _ string) {
				var jm struct{ Supersteps []any }
				if readJSON(t, filepath.Join(dir, "traces", "pr-capture", "job.metrics"), &jm); len(jm.Supersteps) == 0 {
					t.Error("job.metrics has no supersteps")
				}
			}},
		{name: "trace-check", args: []string{"trace-check", "-trace-dir", "traces", "-job", "pr-capture"},
			wants: []string{"replay: 0 capture(s) diverged", "trace-check ok"},
			check: func(t *testing.T, out string) {
				shape := regexp.MustCompile(`served from 0 whole segment\(s\), [1-9][0-9]* ranged read\(s\), [1-9][0-9]* bytes; index loaded from [1-9][0-9]* part\(s\)`)
				if !shape.MatchString(out) {
					t.Errorf("cold-lookup line has the wrong shape:\n%s", out)
				}
			}},
		// Capture lanes write from the goroutine that captures: no queue
		// to size, no backpressure policy, one segment size.
		{name: "-backpressure is gone", args: with(pr, "-backpressure", "drop"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-capture-queue is gone", args: with(pr, "-capture-queue", "64"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-segment-size is gone", args: with(pr, "-segment-size", "4096"), exit: 2, wants: []string{"flag provided but not defined"}},
		// An undebugged run writes the document too.
		{name: "profiler feed", args: with(pr, "-debug", "none", "-workers", "4", "-metrics-out", "metrics.json"),
			wants: []string{"finished:"},
			check: func(t *testing.T, _ string) {
				var doc struct {
					Reason     string           `json:"reason"`
					Supersteps []map[string]any `json:"supersteps"`
				}
				if readJSON(t, filepath.Join(dir, "metrics.json"), &doc); doc.Reason == "" || len(doc.Supersteps) == 0 {
					t.Fatalf("metrics.json: reason %q, %d supersteps", doc.Reason, len(doc.Supersteps))
				}
				for _, s := range doc.Supersteps {
					traffic, _ := s["traffic"].([]any)
					if len(traffic) == 0 {
						t.Fatalf("superstep without a traffic matrix: %v", s)
					}
					var total float64
					for w, row := range traffic {
						total += sum(row)
						if worker := s["workers"].([]any)[w].(map[string]any); sum(row) != worker["sent"] {
							t.Errorf("superstep %v worker %d: traffic row sums to %v, sent %v", s["superstep"], w, sum(row), worker["sent"])
						}
					}
					if total != s["sent"] {
						t.Errorf("superstep %v: traffic sums to %v, sent %v", s["superstep"], total, s["sent"])
					}
					anomalies, _ := s["anomalies"].([]any)
					for _, ev := range anomalies {
						if ev := ev.(map[string]any); ev["kind"] == nil || ev["superstep"] == nil {
							t.Errorf("anomaly event without kind/superstep: %v", ev)
						}
					}
				}
			}},
		// Detection is always on at fixed thresholds; its events are on
		// the superstep rows above.
		{name: "-anomaly-window is gone", args: with(pr, "-anomaly-window", "3"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-anomaly-out is gone", args: with(pr, "-anomaly-out", "a.jsonl"), exit: 2, wants: []string{"flag provided but not defined"}},
		// job.metrics holds the committed history: one row per
		// superstep, though supersteps 2 and 3 ran twice.
		{name: "crash and restart", args: []string{"run", "-alg", "pagerank", "-dataset", "web-BS", "-scale", "0.001", "-workers", "8", "-supersteps", "10",
			"-debug", "DC-sp", "-trace-dir", "traces", "-job", "restarted", "-checkpoint-every", "2", "-crash-at", "3"},
			wants: []string{"finished:", "recovery @3: from-ckpt=2 steps-replayed=2", "resilience: recoveries=1"},
			never: []string{"mode=", "partitions=", "msgs-replayed=", "outbox log:"},
			check: func(t *testing.T, out string) {
				var jm struct{ Supersteps []struct{ Superstep int } }
				readJSON(t, filepath.Join(dir, "traces", "restarted", "job.metrics"), &jm)
				var n int
				if m := regexp.MustCompile(`finished: supersteps=(\d+)`).FindStringSubmatch(out); m != nil {
					n, _ = strconv.Atoi(m[1])
				}
				for i, ss := range jm.Supersteps {
					if ss.Superstep != i {
						t.Fatalf("job.metrics row %d is superstep %d", i, ss.Superstep)
					}
				}
				if n == 0 || len(jm.Supersteps) != n {
					t.Errorf("job.metrics has %d rows; the run printed supersteps=%d", len(jm.Supersteps), n)
				}
			}},
		// -workers 0 is the engine's default count, not zero partitions.
		{name: "chaos on the checkpoint store", args: with(pr, "-debug", "none", "-checkpoint-every", "2", "-crash-at", "3", "-chaos", "0.2", "-workers", "0"),
			wants: []string{"finished:", "resilience: recoveries=1"}},
		{name: "vertex mode", args: []string{"run", "-alg", "cc", "-dataset", "bipartite-1M-3M", "-scale", "0.001", "-workers", "8", "-debug", "none", "-mode", "vertex"},
			wants: []string{"finished:"}, never: []string{"subgraph mode:"}},
		{name: "subgraph mode", args: []string{"run", "-alg", "cc", "-dataset", "bipartite-1M-3M", "-scale", "0.001", "-workers", "8",
			"-debug", "DC-sp", "-trace-dir", "traces", "-job", "cc-sg", "-mode", "subgraph"},
			wants: []string{"finished:", "subgraph mode:"},
			check: func(t *testing.T, _ string) {
				var meta struct {
					ComputeMode string `json:"compute_mode"`
				}
				if readJSON(t, filepath.Join(dir, "traces", "cc-sg", "job.meta"), &meta); meta.ComputeMode != "subgraph" {
					t.Errorf("job.meta records compute_mode %q, want subgraph", meta.ComputeMode)
				}
			}},
		{name: "no subgraph port", args: []string{"run", "-alg", "rw", "-dataset", "web-BS", "-scale", "0.001", "-mode", "subgraph"},
			exit: 1, wants: []string{"no subgraph-mode port"}},
		// The Figure 2 scenario: rw16's counters overflow, which its
		// constraints capture, and the job still runs to the end and exits
		// 0. No packaged algorithm fails its Compute from the CLI, so no
		// row reaches cmdRun's "job FAILED" branch. A run whose trace
		// could not be written exits 1.
		{name: "fig2 scenario captures and exits 0", args: []string{"run", "-alg", "rw16", "-dataset", "web-BS", "-scale", "0.003", "-debug", "fig2",
			"-trace-dir", "traces", "-job", "rw-fail", "-supersteps", "8"},
			wants: []string{"finished:", "captures"}, never: []string{"job FAILED"}},
		{name: "trace write failure exits 1", args: with(pr, "-debug", "DC-sp", "-trace-dir", "traces", "-job", "unwritable", "-workers", "1"),
			exit: 1, wants: []string{"finished:", "trace write"}},
		// job.meta reads a zero budget as "not recorded", so a run has one.
		{name: "zero budget", args: with(pr, "-supersteps", "0"), exit: 1, wants: []string{"supersteps must be at least 1, got 0"}},
		{name: "-msg-batch is gone", args: with(pr, "-msg-batch", "256"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-checkpoint-retain is gone", args: with(pr, "-checkpoint-retain", "1"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-msg-log-dir is gone", args: with(pr, "-msg-log-dir", "x"), exit: 2, wants: []string{"flag provided but not defined"}},
		{name: "-sync-capture is gone", args: with(pr, "-sync-capture"), exit: 2, wants: []string{"flag provided but not defined"}},
		// -metrics-addr serves /metrics alone: no runtime gauges, no profiler.
		{name: "-pprof is gone", args: with(pr, "-pprof"), exit: 2, wants: []string{"flag provided but not defined: -pprof"}},
		// A crash flag that would inject nothing is refused.
		{name: "crash without checkpoints", args: with(pr, "-debug", "none", "-crash-at", "3"),
			exit: 2, wants: []string{"-crash-at requires -checkpoint-every"}, never: []string{"finished:"}},
		// Every crash restarts the whole job from a checkpoint: there is no
		// recovery mode to choose and no partition to name.
		{name: "-recovery is gone", args: with(pr, "-debug", "none", "-checkpoint-every", "2", "-crash-at", "3", "-recovery", "log"),
			exit: 2, wants: []string{"flag provided but not defined: -recovery"}, never: []string{"finished:"}},
		{name: "-crash-partition is gone", args: with(pr, "-debug", "none", "-checkpoint-every", "2", "-crash-at", "3", "-crash-partition", "2"),
			exit: 2, wants: []string{"flag provided but not defined: -crash-partition"}, never: []string{"finished:"}},
		{name: "crash partition past the workers", args: with(pr, "-debug", "none", "-checkpoint-every", "2", "-crash-at", "3", "-crash-partition", "9", "-workers", "4"),
			exit: 2, wants: []string{"flag provided but not defined: -crash-partition"}, never: []string{"finished:"}},
		{name: "negative crash partition", args: with(pr, "-debug", "none", "-checkpoint-every", "2", "-crash-at", "3", "-crash-partition", "-5"),
			exit: 2, wants: []string{"flag provided but not defined: -crash-partition"}, never: []string{"finished:"}},
	}
	for _, row := range rows {
		cmd := exec.Command(bin, row.args...)
		cmd.Dir = dir
		raw, err := cmd.CombinedOutput()
		out := string(raw)
		if code := cmd.ProcessState.ExitCode(); code != row.exit {
			t.Fatalf("%s: graft %s: exit status %d (%v), want %d\n%s", row.name, strings.Join(row.args, " "), code, err, row.exit, out)
		}
		for _, want := range row.wants {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", row.name, want, out)
			}
		}
		for _, never := range row.never {
			if strings.Contains(out, never) {
				t.Errorf("%s: output holds %q:\n%s", row.name, never, out)
			}
		}
		if row.check != nil && !t.Failed() {
			row.check(t, out)
		}
	}
}

// TestCLILiveMetrics: `graft run -metrics-addr` on an ephemeral port
// serves the job's per-superstep telemetry on /metrics while it
// lingers, and nothing else; the lingering /metrics, -metrics-out and
// job.metrics are one document.
func TestCLILiveMetrics(t *testing.T) {
	bin := buildGraft(t)
	dir := t.TempDir()
	cmd := exec.Command(bin, "run", "-alg", "pagerank", "-dataset", "soc-Epinions", "-scale", "0.001", "-supersteps", "5",
		"-debug", "DC-sp", "-trace-dir", "traces", "-job", "pr-live", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m",
		"-metrics-out", "m.json")
	cmd.Dir = dir
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	// The address line comes before the job, the linger line after it.
	var base string
	addrLine := regexp.MustCompile(`^metrics: (http://[^/]+)/metrics`)
	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		if m := addrLine.FindStringSubmatch(lines.Text()); m != nil {
			base = m[1]
		}
		if strings.HasPrefix(lines.Text(), "metrics: serving for another") {
			break
		}
	}
	if base == "" {
		t.Fatal("graft run never printed its metrics address and linger line")
	}
	// A client that stalls inside its request headers is cut off after
	// graft's header timeout (10 s) instead of holding the connection.
	stalled, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	stallCut := make(chan error, 1)
	go func() {
		stalled.SetReadDeadline(time.Now().Add(20 * time.Second))
		_, err := io.ReadAll(stalled)
		stallCut <- err
	}()
	fetch := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || json.Unmarshal(body, v) != nil {
			t.Fatalf("GET %s = %d, not JSON: %s", path, resp.StatusCode, body)
		}
	}
	var doc struct {
		JobID      string           `json:"job_id"`
		Supersteps []map[string]any `json:"supersteps"`
		Totals     map[string]any   `json:"totals"`
	}
	fetch("/metrics", &doc)
	if doc.JobID != "pr-live" || len(doc.Supersteps) == 0 || doc.Totals["vertices"].(float64) <= 0 {
		t.Fatalf("/metrics = job %q, %d supersteps, totals %v", doc.JobID, len(doc.Supersteps), doc.Totals)
	}
	for _, key := range []string{"compute_ns", "barrier_ns", "compute_skew", "straggler", "workers"} {
		if _, ok := doc.Supersteps[0][key]; !ok {
			t.Errorf("/metrics superstep telemetry lacks %q", key)
		}
	}
	var served, out, persisted any
	fetch("/metrics", &served)
	readJSON(t, filepath.Join(dir, "m.json"), &out)
	readJSON(t, filepath.Join(dir, "traces", "pr-live", "job.metrics"), &persisted)
	if !reflect.DeepEqual(served, out) || !reflect.DeepEqual(served, persisted) {
		t.Errorf("/metrics, -metrics-out and job.metrics differ:\n%v\n%v\n%v", served, out, persisted)
	}
	for _, path := range []string{"/debug/vars", "/debug/pprof/", "/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	if err := <-stallCut; err != nil {
		t.Errorf("a connection stalled in its headers was not closed by the server: %v", err)
	}
}

// TestCLIWorkflow drives the graft command-line tool through the whole
// debugging workflow on disk: generate a dataset, run an algorithm
// under a DebugConfig, list jobs, dump the trace, and generate
// reproduction code — the CLI equivalent of a user session.
func TestCLIWorkflow(t *testing.T) {
	bin := buildGraft(t)
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root := repoRoot(t)
	work := t.TempDir()
	traceDir := filepath.Join(work, "traces")

	run := func(wantErr bool, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if (err != nil) != wantErr {
			t.Fatalf("graft %s: err=%v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	// graphgen writes an adjacency list.
	adj := filepath.Join(work, "g.adjlist")
	cmd := exec.Command(goBin, "run", "./cmd/graphgen",
		"-kind", "bipartite", "-n", "300", "-deg", "3", "-o", adj)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("graphgen: %v\n%s", err, out)
	}
	if fi, err := os.Stat(adj); err != nil || fi.Size() == 0 {
		t.Fatalf("graphgen wrote nothing: %v", err)
	}

	// Run buggy GC under DC-full over that file.
	out := run(false, "run", "-alg", "gc-buggy", "-dataset", adj,
		"-debug", "DC-full", "-trace-dir", traceDir, "-job", "cli-gc")
	if !strings.Contains(out, "finished:") || !strings.Contains(out, "captures:") {
		t.Fatalf("run output:\n%s", out)
	}

	// jobs lists it.
	out = run(false, "jobs", "-trace-dir", traceDir)
	if !strings.Contains(out, "cli-gc") || !strings.Contains(out, "gc-buggy") {
		t.Fatalf("jobs output:\n%s", out)
	}

	// show dumps captures with M/V/E status.
	out = run(false, "show", "-trace-dir", traceDir, "-job", "cli-gc", "-superstep", "1")
	if !strings.Contains(out, "superstep 1:") || !strings.Contains(out, "vertex") {
		t.Fatalf("show output:\n%s", out)
	}

	// repro generates a test for vertex 1 (a DC-full static target).
	out = run(false, "repro", "-trace-dir", traceDir, "-job", "cli-gc",
		"-superstep", "1", "-vertex", "1",
		"-comp", "algorithms.NewBuggyGraphColoring(42).Compute",
		"-imports", "graft/internal/algorithms", "-assert")
	if !strings.Contains(out, "func TestReproduceVertex1Superstep1") ||
		!strings.Contains(out, "algorithms.NewBuggyGraphColoring(42).Compute") {
		t.Fatalf("repro output:\n%s", out)
	}

	// repro -suite emits the whole history; without -comp it builds the
	// algorithm the manifest names.
	out = run(false, "repro", "-trace-dir", traceDir, "-job", "cli-gc", "-vertex", "1", "-suite")
	if strings.Count(out, "func TestReproduceVertex1Superstep") < 2 ||
		!strings.Contains(out, "algorithms.NewBuggyGraphColoring(42).Compute") {
		t.Fatalf("suite output:\n%s", out)
	}

	// repro -master emits a master test.
	out = run(false, "repro", "-trace-dir", traceDir, "-job", "cli-gc",
		"-superstep", "1", "-master")
	if !strings.Contains(out, "func TestReproduceMasterSuperstep1") {
		t.Fatalf("master repro output:\n%s", out)
	}

	// An exception scenario: the run fails but reports the capture.
	out = run(false, "run", "-alg", "rw16", "-dataset", "web-BS", "-scale", "0.003",
		"-debug", "fig2", "-trace-dir", traceDir, "-job", "cli-rw", "-supersteps", "8")
	if !strings.Contains(out, "captures") {
		t.Fatalf("rw16 run output:\n%s", out)
	}
	out = run(false, "show", "-trace-dir", traceDir, "-job", "cli-rw", "-violations")
	if !strings.Contains(out, "M=RED") || !strings.Contains(out, "VIOLATION") {
		t.Fatalf("violations output:\n%s", out)
	}

	// diff compares the buggy run against the fixed algorithm on the
	// same dataset and capture set.
	run(false, "run", "-alg", "gc", "-dataset", adj,
		"-debug", "DC-full", "-trace-dir", traceDir, "-job", "cli-gc-fixed")
	out = run(false, "diff", "-trace-dir", traceDir, "-a", "cli-gc", "-b", "cli-gc-fixed")
	if !strings.Contains(out, "divergence") {
		t.Fatalf("diff output:\n%s", out)
	}
	out = run(false, "diff", "-trace-dir", traceDir, "-a", "cli-gc", "-b", "cli-gc")
	if !strings.Contains(out, "no divergences") {
		t.Fatalf("self-diff output:\n%s", out)
	}

	// Unknown flags and bad input are rejected.
	run(true, "run", "-alg", "nope", "-trace-dir", traceDir)
	run(true, "repro", "-trace-dir", traceDir, "-job", "cli-gc") // no -vertex
	run(true, "show", "-trace-dir", traceDir)                    // no -job
	run(true, "diff", "-trace-dir", traceDir, "-a", "cli-gc")    // no -b
}

// TestCLIShowFlagsNondeterministicCapture: `graft show` says, in one
// line under the vertex, when a capture's recording re-run did not end
// as the job's own compute did.
func TestCLIShowFlagsNondeterministicCapture(t *testing.T) {
	bin := buildGraft(t)
	traceDir := t.TempDir()
	fs, err := NewLocalFS(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	for id := VertexID(0); id < 4; id++ {
		g.AddVertex(id, nil)
	}
	calls := map[VertexID]int{} // one worker
	comp := ComputeFunc(func(_ Context, v *Vertex, _ []Value) error {
		calls[v.ID()]++
		v.SetValue(NewLong(int64(v.ID())))
		if calls[v.ID()] == 1 || v.ID() != 3 { // vertex 3 stays awake when run again
			v.VoteToHalt()
		}
		return nil
	})
	if _, err := Run(g, comp, RunOptions{
		JobID: "fickle", Algorithm: "fickle", Engine: EngineConfig{NumWorkers: 1}, Store: NewStore(fs, ""),
		Debug: &DebugConfig{VertexValueConstraint: func(v Value, _ VertexID, _ int) bool { return v.String() < "2" }},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "show", "-trace-dir", traceDir, "-job", "fickle").CombinedOutput()
	if err != nil {
		t.Fatalf("graft show: %v\n%s", err, out)
	}
	lines := strings.Split(string(out), "\n")
	flagged := 0
	for i, line := range lines {
		if strings.Contains(line, "NONDETERMINISTIC:") {
			flagged++
			if i == 0 || !strings.Contains(lines[i-1], "vertex 3") || !strings.Contains(lines[i-1], "[vertex-constraint+nondeterministic]") {
				t.Errorf("flag line follows %q, want vertex 3's capture", lines[i-1])
			}
		}
	}
	if flagged != 1 || !strings.Contains(string(out), "vertex 2 ") {
		t.Errorf("show flags %d captures, want vertex 3 alone beside an unflagged vertex 2:\n%s", flagged, out)
	}
}
