package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graft/internal/harness"
)

// tinyFig8 runs the Figure 8 grid on graphs small enough that the grid
// shape, not the timings, is what a test sees.
var tinyFig8 = []string{"-fig", "8", "-scale", "0.000002", "-reps", "1", "-workers", "2"}

// readFig8 decodes a Figure 8 artifact — no unknown fields — and checks
// it holds one row per (workload, config) cell.
func readFig8(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var rows []harness.Measurement
	if err := dec.Decode(&rows); err != nil {
		t.Fatalf("%s does not decode into Figure 8 rows: %v", path, err)
	}
	if want := 4 * len(harness.StandardConfigs(42)); len(rows) != want {
		t.Errorf("%s: %d rows, want %d", path, len(rows), want)
	}
}

func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fig8.json")
	var stdout, stderr bytes.Buffer
	if status := run(append([]string{"-out", out}, tinyFig8...), &stdout, &stderr); status != 0 {
		t.Fatalf("-fig 8: exit status %d\nstdout: %s\nstderr: %s", status, &stdout, &stderr)
	}
	for _, want := range []string{"Figure 8:", "DC-full", "wrote " + out, "fig8 check"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-fig 8: stdout lacks %q:\n%s", want, &stdout)
		}
	}
	readFig8(t, out)

	// An artifact that cannot be written fails the run.
	unwritable := filepath.Join(dir, "missing", "fig8.json")
	if status := run(append([]string{"-out", unwritable}, tinyFig8...), io.Discard, io.Discard); status != 1 {
		t.Errorf("unwritable -out: exit status %d, want 1", status)
	}

	stdout.Reset()
	if status := run([]string{"-table", "3"}, &stdout, io.Discard); status != 0 || !strings.Contains(stdout.String(), "Table 3") {
		t.Errorf("-table 3: exit status %d, stdout:\n%s", status, &stdout)
	}

	// Nothing selected, and every deleted experiment or flag, is usage.
	for _, args := range [][]string{
		nil, {"-fig", "9"}, {"-subgraph"}, {"-partition"}, {"-serve"}, {"-check=false", "-fig", "8"},
		{"-profiler"}, {"-chaos"}, {"-fault-p", "0.3", "-fig", "8"},
	} {
		if status := run(args, io.Discard, io.Discard); status != 2 {
			t.Errorf("%v: exit status %d, want 2", args, status)
		}
	}
}

// TestDefaultArtifactPath: without -out the rows land in BENCH_fig8.json
// in the working directory.
func TestDefaultArtifactPath(t *testing.T) {
	t.Chdir(t.TempDir())
	if status := run(tinyFig8, io.Discard, io.Discard); status != 0 {
		t.Fatalf("exit status %d", status)
	}
	readFig8(t, "BENCH_fig8.json")
}
