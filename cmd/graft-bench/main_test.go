package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graft/internal/harness"
	"graft/internal/servebench"
)

// TestRegistry pins the experiment table: which experiments exist, that
// a name selects exactly one of them, and that every BENCH_*.json
// checked in at the repository root is some experiment's default
// artifact and decodes — no unknown fields — into that experiment's
// rows.
func TestRegistry(t *testing.T) {
	byName := map[string]harness.Experiment{}
	var names []string
	for _, e := range experiments {
		if _, dup := byName[e.Name]; dup {
			t.Errorf("experiment %q is in the table twice", e.Name)
		}
		if e.Doc == "" || e.Run == nil || e.Print == nil || e.Check == nil || e.NewRows == nil {
			t.Errorf("experiment %q is missing a field: %+v", e.Name, e)
		}
		byName[e.Name] = e
		names = append(names, e.Name)
	}
	if got, want := strings.Join(names, " "), "fig8 subgraph partition serve"; got != want {
		t.Errorf("experiments = %s, want %s", got, want)
	}

	artifacts, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	for _, path := range artifacts {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		e, ok := byName[name]
		if !ok {
			t.Errorf("%s is no experiment's artifact (experiments: %v)", path, names)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		err = dec.Decode(e.NewRows())
		f.Close()
		if err != nil {
			t.Errorf("%s does not decode into the %s rows: %v", path, name, err)
			continue
		}
		checked[name] = true
	}
	for _, name := range []string{"subgraph", "partition", "serve"} {
		if !checked[name] {
			t.Errorf("BENCH_%s.json is not checked in", name)
		}
	}
}

// fakeExperiment is a one-row experiment whose gate reports problems.
func fakeExperiment(name string, runErr error, problems ...string) harness.Experiment {
	return harness.NewExperiment(name, "a fake experiment",
		func(harness.Params) ([]int, error) { return []int{1, 2, 3}, runErr },
		func(w io.Writer, rows []int) { io.WriteString(w, "printed\n") },
		func(rows []int) []string { return problems })
}

func TestRunExitStatus(t *testing.T) {
	advisory := fakeExperiment("advisory", nil, "looks odd")
	advisory.Advisory = true
	table := []harness.Experiment{
		fakeExperiment("passes", nil),
		fakeExperiment("gated", nil, "claim broken"),
		advisory,
		fakeExperiment("broken", errors.New("cell exploded")),
	}
	dir := t.TempDir()
	cases := []struct {
		args       []string
		status     int
		wrote      bool
		stdoutWant string
	}{
		{[]string{"-passes"}, 0, true, "passes check: OK"},
		{[]string{"-gated"}, 1, true, "  - claim broken"},
		{[]string{"-gated", "-check=false"}, 0, true, "printed"},
		{[]string{"-advisory"}, 0, true, "  - looks odd"},
		{[]string{"-broken"}, 1, false, ""},
		{[]string{"-no-such-experiment"}, 2, false, ""},
		{nil, 2, false, ""},
	}
	// The deleted experiments and their flags are unknown to the real table.
	for _, gone := range [][]string{{"-profiler"}, {"-chaos"}, {"-fault-p", "0.3", "-fig", "8"}} {
		if status := run(experiments, gone, io.Discard, io.Discard); status != 2 {
			t.Errorf("%v: exit status %d, want 2", gone, status)
		}
	}
	for _, tc := range cases {
		out := filepath.Join(dir, strings.Join(tc.args, "")+".json")
		var stdout, stderr bytes.Buffer
		status := run(table, append([]string{"-out", out}, tc.args...), &stdout, &stderr)
		if status != tc.status {
			t.Errorf("%v: exit status %d, want %d\nstdout: %s\nstderr: %s", tc.args, status, tc.status, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdoutWant) {
			t.Errorf("%v: stdout lacks %q:\n%s", tc.args, tc.stdoutWant, &stdout)
		}
		b, err := os.ReadFile(out)
		if wrote := err == nil; wrote != tc.wrote {
			t.Errorf("%v: artifact written = %v, want %v", tc.args, wrote, tc.wrote)
		}
		if tc.wrote && strings.Join(strings.Fields(string(b)), "") != "[1,2,3]" {
			t.Errorf("%v: artifact = %q", tc.args, b)
		}
	}
}

// TestDefaultArtifactPath: without -out the rows land in
// BENCH_<name>.json in the working directory.
func TestDefaultArtifactPath(t *testing.T) {
	t.Chdir(t.TempDir())
	if status := run([]harness.Experiment{fakeExperiment("passes", nil)}, []string{"-passes"}, io.Discard, io.Discard); status != 0 {
		t.Fatalf("exit status %d", status)
	}
	if _, err := os.Stat("BENCH_passes.json"); err != nil {
		t.Fatal(err)
	}
}

// doctored loads experiment name's checked-in rows, which must pass
// their gate as they are and fail it once doctor has broken one claim.
func doctored[R any](t *testing.T, name string, doctor func(R)) {
	t.Helper()
	var rows R
	b, err := os.ReadFile("../../BENCH_" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments {
		if e.Name != name {
			continue
		}
		if problems := e.Check(rows); len(problems) != 0 {
			t.Errorf("%s: the checked-in rows fail their gate: %v", name, problems)
		}
		doctor(rows)
		if problems := e.Check(rows); len(problems) == 0 {
			t.Errorf("%s: the gate passed doctored rows", name)
		}
		return
	}
	t.Errorf("no experiment %q", name)
}

// TestDoctoredRowsFailTheirGates: the table's Check is each
// experiment's real gate.
func TestDoctoredRowsFailTheirGates(t *testing.T) {
	doctored(t, "subgraph", func(rows []harness.SubgraphBench) { rows[0].SubgraphSupersteps = rows[0].VertexSupersteps })
	doctored(t, "partition", func(rows []harness.PartitionBench) { rows[0].Match = false })
	doctored(t, "serve", func(row *servebench.ServeBench) { row.Speedup = 1.1 })
}
