package graft

import (
	"errors"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/trace"
)

// TestSubgraphCrashRecoveryDigestEquivalence composes subgraph mode
// with crash recovery: a run that crashes and restarts from a
// checkpoint must land on exactly the same vertex values — and the same
// trace — as a failure-free subgraph run, which in turn must match
// vertex mode.
func TestSubgraphCrashRecoveryDigestEquivalence(t *testing.T) {
	const crashAt = 3
	run := func(subgraph, crash bool) (string, *trace.Reader, *Stats) {
		engine := EngineConfig{NumWorkers: 4}
		at := -1
		if crash {
			at = crashAt
		}
		g := broomGraph(200, 60)
		view, stats := tracedPlaneRun(t, g, algorithms.NewConnectedComponents(), subgraph, engine, at)
		return g.ValuesDigest(), view, stats
	}
	vertexDigest, _, _ := run(false, false)
	cleanDigest, cleanView, cleanStats := run(true, false)
	crashDigest, crashView, crashStats := run(true, true)

	if cleanStats.Supersteps <= crashAt {
		t.Fatalf("subgraph run finished in %d supersteps, before the injected crash at %d",
			cleanStats.Supersteps, crashAt)
	}
	if cleanDigest != vertexDigest {
		t.Fatalf("subgraph-mode values diverged from vertex mode:\nvertex:   %s\nsubgraph: %s",
			vertexDigest, cleanDigest)
	}
	if crashDigest != cleanDigest {
		t.Fatalf("recovery changed subgraph-mode values:\nclean:     %s\nrecovered: %s",
			cleanDigest, crashDigest)
	}
	if crashStats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", crashStats.Recoveries)
	}
	if a, b := trace.Digest(cleanView), trace.Digest(crashView); a != b {
		t.Fatalf("recovery is visible in the trace digest:\nclean:     %s\nrecovered: %s", a, b)
	}
}

// TestSubgraphTraceEndToEnd runs a debugged subgraph-mode job through
// the public API and checks the whole trace surface: the manifest's
// compute mode, subgraph captures whose members all have vertex
// captures, member-to-component resolution, and an index that agrees
// with a scan of the segments on subgraph records too.
func TestSubgraphTraceEndToEnd(t *testing.T) {
	g := graphgen.RegularBipartite(80, 4)
	store := NewStore(NewMemFS(), "traces")
	alg := algorithms.NewConnectedComponents()
	res, err := RunAlgorithm(g, alg, RunOptions{
		JobID:    "sg-e2e",
		Engine:   EngineConfig{NumWorkers: 4},
		Subgraph: alg.Subgraph,
		Debug:    &DebugConfig{CaptureAllActive: true, MaxCaptures: -1},
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures == 0 {
		t.Fatal("no captures recorded")
	}

	r, err := store.OpenReader("sg-e2e")
	if err != nil {
		t.Fatal(err)
	}
	if mode := r.JobMeta().ComputeMode; mode != "subgraph" {
		t.Fatalf("manifest compute_mode = %q, want subgraph", mode)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}

	sawSubgraph := false
	for _, s := range r.Supersteps() {
		for _, sc := range r.SubgraphsAt(s) {
			sawSubgraph = true
			for _, m := range sc.Members {
				if r.Capture(s, m) == nil {
					t.Fatalf("superstep %d: member %d of subgraph %d has no vertex capture", s, m, sc.ID)
				}
				if got := r.SubgraphAt(s, m); got == nil || got.ID != sc.ID || got.Digest != sc.Digest {
					t.Fatalf("superstep %d: SubgraphAt(%d) = %+v, want component %d", s, m, got, sc.ID)
				}
			}
		}
	}
	if !sawSubgraph {
		t.Fatal("trace contains no subgraph captures")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSubgraphHelper: RunOptions.Subgraph alone selects subgraph
// mode (Run with no Computation), and a job given no program at all is
// a typed error.
func TestRunSubgraphHelper(t *testing.T) {
	g := graphgen.RegularBipartite(40, 3)
	res, err := Run(g, nil, RunOptions{
		Subgraph: algorithms.NewConnectedComponents().Subgraph,
		Engine:   EngineConfig{NumWorkers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Supersteps == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}

	if _, err := Run(g, nil, RunOptions{Engine: EngineConfig{NumWorkers: 2}}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("expected ErrInvalidConfig for a job without a program, got %v", err)
	}
}
