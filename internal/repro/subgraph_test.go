package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// subgraphCaptureRun is captureRun's subgraph-mode twin: it runs the
// algorithm's subgraph port under full capture and returns the trace.
func subgraphCaptureRun(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, dc core.DebugConfig) trace.View {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	session, err := core.Attach(store, core.Options{
		JobID: "repro-sg-job", Algorithm: alg.Name, NumWorkers: 4,
		ComputeMode: "subgraph",
	}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pregel.Config{
		NumWorkers:    4,
		ComputeMode:   pregel.ModeSubgraph,
		Listener:      session,
		Master:        session.InstrumentMaster(alg.Master),
		Combiner:      alg.Combiner,
		MaxSupersteps: alg.MaxSupersteps,
	}
	job := pregel.NewSubgraphJob(g, session.InstrumentSubgraph(alg.Subgraph), cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	db, err := store.OpenReader("repro-sg-job")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// wccSubgraphTrace captures a subgraph-mode WCC run with every
// active component recorded, shared by the subgraph codegen tests.
func wccSubgraphTrace(t *testing.T) trace.View {
	t.Helper()
	return subgraphCaptureRun(t, algorithms.NewConnectedComponents(),
		graphgen.RegularBipartite(40, 3),
		core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
}

// firstSubgraph returns a (superstep, capture) pair from the earliest
// superstep that recorded subgraph captures.
func firstSubgraph(t *testing.T, db trace.View) (int, *trace.SubgraphCapture) {
	t.Helper()
	for _, s := range db.Supersteps() {
		if sgs := db.SubgraphsAt(s); len(sgs) > 0 {
			return s, sgs[0]
		}
	}
	t.Fatal("trace has no subgraph captures")
	return 0, nil
}

func TestGenerateSubgraphTestContents(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	code, err := GenerateSubgraphTest(db, s, sc.ID, GenSpec{
		SubgraphExpr: "algorithms.NewConnectedComponents().Subgraph",
		ExtraImports: []string{"graft/internal/algorithms"},
		Assert:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pregel.NewDetachedSubgraph",
		"repro.MockSubgraphContext",
		"sg.ValuesDigest()",
		sc.Digest,
		"algorithms.NewConnectedComponents().Subgraph",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code lacks %q:\n%s", want, code)
		}
	}
	if got := strings.Count(code, "pregel.NewDetachedVertex("); got != len(sc.Members) {
		t.Errorf("generated %d member vertices, want %d", got, len(sc.Members))
	}
}

func TestGenerateSubgraphTestPlaceholder(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	code, err := GenerateSubgraphTest(db, s, sc.ID, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "t.Skip(") {
		t.Error("placeholder test should self-skip until a computation is set")
	}
}

// TestGenerateSubgraphTestByMember asks for a non-representative member
// and must get the component containing it.
func TestGenerateSubgraphTestByMember(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	if len(sc.Members) < 2 {
		t.Skip("first component has a single member")
	}
	member := sc.Members[len(sc.Members)-1]
	code, err := GenerateSubgraphTest(db, s, member, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "repro.MockSubgraphContext") {
		t.Errorf("lookup by member %d produced:\n%s", member, code)
	}
}

func TestGenerateSubgraphTestErrors(t *testing.T) {
	db := wccSubgraphTrace(t)
	if _, err := GenerateSubgraphTest(db, 0, 99999, GenSpec{}); err == nil {
		t.Error("expected an error for an uncaptured vertex")
	}
}

// TestGeneratedSubgraphTestCompilesAndPasses is the acceptance check
// that subgraph steps remain single-vertex debuggable: the generated
// reproduction test is written into a scratch package and executed with
// go test, and its assertions (per-component digest, sends, internal
// iterations, halt vote) must hold against a fresh local replay.
func TestGeneratedSubgraphTestCompilesAndPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	repoRoot, err := filepath.Abs("../../")
	if err != nil {
		t.Fatal(err)
	}

	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	code, err := GenerateSubgraphTest(db, s, sc.ID, GenSpec{
		Package:      "reprosggen",
		SubgraphExpr: "algorithms.NewConnectedComponents().Subgraph",
		ExtraImports: []string{"graft/internal/algorithms"},
		Assert:       true,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir, err := os.MkdirTemp(repoRoot, "tmp-reprosggen-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "subgraph_repro_test.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "test", "-count=1", "./"+filepath.Base(dir))
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated subgraph test failed: %v\n%s\n---- code ----\n%s", err, out, code)
	}
}
