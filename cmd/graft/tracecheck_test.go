package main

import (
	"strings"
	"testing"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
)

// TestTraceCheckReplaysCaptures: trace-check replays every capture with
// the algorithm the manifest names, and fails a trace whose captures do
// not replay under it — here a graph coloring run at seed 8 whose
// manifest records seed 7.
func TestTraceCheckReplaysCaptures(t *testing.T) {
	dir := t.TempDir()
	store, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for job, seed := range map[string]int64{"gc-7": 7, "gc-8-as-7": 8} {
		g := graphgen.RegularBipartite(40, 3)
		if _, err := graft.RunAlgorithm(g, algorithms.NewGraphColoring(seed), graft.RunOptions{
			JobID: job, Store: store, Seed: 7, Supersteps: 10,
			Debug: &graft.DebugConfig{CaptureAllActive: true, MaxCaptures: -1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cmdTraceCheck([]string{"-trace-dir", dir, "-job", "gc-7"}); err != nil {
		t.Errorf("a trace that replays: %v", err)
	}
	err = cmdTraceCheck([]string{"-trace-dir", dir, "-job", "gc-8-as-7"})
	if err == nil || !strings.Contains(err.Error(), "diverged on replay") {
		t.Errorf("a trace that does not replay: %v, want a divergence", err)
	}
}
