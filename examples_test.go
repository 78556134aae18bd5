package graft

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end and checks
// the landmarks of its scenario narrative, so the paper's three demo
// scenarios stay reproducible.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		dir   string
		wants []string
	}{
		{"quickstart", []string{
			"connected components finished",
			"captured contexts of vertex 2",
			"divergences: 0",
			"generated reproduction test",
		}},
		{"coloring", []string{
			"BUG VISIBLE",
			"entered the MIS at superstep",
			"diffs vs capture: []",
			"generated reproduction test",
		}},
		{"randomwalk", []string{
			"M=RED",
			"sent -",
			"replay fidelity diffs: []",
			"any red M box: false",
		}},
		{"matching", []string{
			"reason=max-supersteps",
			"ROOT CAUSE",
			"asymmetric weights",
			"converged",
		}},
		{"guitour", []string{
			"GUI listening",
			"node-link view",
			"reproduce endpoint returned",
		}},
		{"constraints", []string{
			"incoming-message constraint:",
			"adjacency constraint:",
			"-test suite covering every captured superstep",
		}},
		{"faulttolerance", []string{
			"simulated worker crash",
			"labels differing from the undisturbed run: 0",
			"latest checkpoint still readable from surviving replicas",
		}},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(goBin, "run", "./examples/"+c.dir)
			cmd.Dir = repoRoot(t)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q\n%s", want, out)
				}
			}
		})
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Clean(wd)
}
