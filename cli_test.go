package graft

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIWorkflow drives the graft command-line tool through the whole
// debugging workflow on disk: generate a dataset, run an algorithm
// under a DebugConfig, list jobs, dump the trace, and generate
// reproduction code — the CLI equivalent of a user session.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	root := repoRoot(t)
	work := t.TempDir()
	traceDir := filepath.Join(work, "traces")

	run := func(wantErr bool, args ...string) string {
		t.Helper()
		cmd := exec.Command(goBin, append([]string{"run", "./cmd/graft"}, args...)...)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
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

	// repro -suite emits the whole history.
	out = run(false, "repro", "-trace-dir", traceDir, "-job", "cli-gc", "-vertex", "1", "-suite")
	if strings.Count(out, "func TestReproduceVertex1Superstep") < 2 {
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
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
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
	cmd := exec.Command(goBin, "run", "./cmd/graft", "show", "-trace-dir", traceDir, "-job", "fickle")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
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
