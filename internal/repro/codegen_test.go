package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// gcTrace builds a buggy-GC trace with a handful of captures, shared
// by the codegen tests.
func gcTrace(t *testing.T) (*trace.Reader, *algorithms.Algorithm) {
	t.Helper()
	alg := algorithms.NewBuggyGraphColoring(42)
	g := graphgen.RegularBipartite(40, 3)
	db, err := captureRun(t, alg, g, core.DebugConfig{
		CaptureIDs: []pregel.VertexID{2, 3}, CaptureNeighbors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, alg
}

func TestGenerateVertexTestContents(t *testing.T) {
	db, _ := gcTrace(t)
	s := db.Supersteps()[1] // a CONFLICT-RESOLUTION superstep
	code, err := GenerateVertexTest(db, s, 2, GenSpec{
		ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package graftrepro",
		fmt.Sprintf("TestReproduceVertex2Superstep%d", s),
		"repro.MockContext",
		fmt.Sprintf("SuperstepN:  %d", s),
		"pregel.NewDetachedVertex(2,",
		"vertex.AddEdge(",
		"comp := pregel.Computation(algorithms.NewBuggyGraphColoring(42).Compute)",
		"comp.Compute(ctx, vertex, msgs)",
		`"phase": pregel.NewText(`,
		"Assertions from the captured cluster execution",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q\n----\n%s", want, code)
		}
	}
}

func TestGenerateVertexTestPlaceholder(t *testing.T) {
	db, _ := gcTrace(t)
	code, err := GenerateVertexTest(db, 0, 2, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "var comp pregel.Computation") ||
		!strings.Contains(code, "t.Skip(") {
		t.Errorf("placeholder variant wrong:\n%s", code)
	}
}

func TestGenerateVertexTestErrors(t *testing.T) {
	db, _ := gcTrace(t)
	if _, err := GenerateVertexTest(db, 0, 999, GenSpec{}); err == nil {
		t.Error("expected error for missing capture")
	}
	if _, err := GenerateMasterTest(db, 99999, GenSpec{}); err == nil {
		t.Error("expected error for missing master capture")
	}
}

func TestIdentSafe(t *testing.T) {
	if got := identSafe(672); got != "672" {
		t.Errorf("identSafe(672) = %q", got)
	}
	if got := identSafe(-5); got != "Neg5" {
		t.Errorf("identSafe(-5) = %q", got)
	}
}

func TestValueExprForms(t *testing.T) {
	cases := []struct {
		v    pregel.Value
		want string
	}{
		{nil, "nil"},
		{pregel.Nil(), "pregel.Nil()"},
		{pregel.NewBool(true), "pregel.NewBool(true)"},
		{pregel.NewInt(-3), "pregel.NewInt(-3)"},
		{pregel.NewLong(42), "pregel.NewLong(42)"},
		{pregel.NewShort(-2), "pregel.NewShort(-2)"},
		{pregel.NewDouble(1.5), "pregel.NewDouble(1.5)"},
		{pregel.NewText("hi"), `pregel.NewText("hi")`},
	}
	for _, c := range cases {
		if got := valueExpr(c.v); got != c.want {
			t.Errorf("valueExpr(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Composite values fall back to hex + display comment.
	got := valueExpr(pregel.NewLongList(1, 2))
	if !strings.Contains(got, "repro.MustDecodeValue(") || !strings.Contains(got, "/* [1 2] */") {
		t.Errorf("composite expr = %q", got)
	}
	// Comment injection is neutralized.
	if e := safeComment("evil */ code"); strings.Contains(e, "*/") {
		t.Errorf("safeComment left %q", e)
	}
}

func TestGenerateVertexSuite(t *testing.T) {
	db, _ := gcTrace(t)
	code, err := GenerateVertexSuite(db, 2, GenSpec{
		ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	history := db.CapturesOf(2)
	if len(history) < 2 {
		t.Fatalf("vertex 2 has only %d captures", len(history))
	}
	if got := strings.Count(code, "func TestReproduceVertex2Superstep"); got != len(history) {
		t.Errorf("suite has %d test funcs, want %d\n%s", got, len(history), code)
	}
	if got := strings.Count(code, "package graftrepro"); got != 1 {
		t.Errorf("suite has %d package clauses", got)
	}
	if got := strings.Count(code, `"testing"`); got != 1 {
		t.Errorf("suite has %d import blocks", got)
	}

	if _, err := GenerateVertexSuite(db, 99999, GenSpec{}); err == nil {
		t.Error("expected error for uncaptured vertex")
	}
}

func TestGenerateMasterTestContents(t *testing.T) {
	db, _ := gcTrace(t)
	code, err := GenerateMasterTest(db, 1, GenSpec{
		MasterExpr:   "algorithms.NewGraphColoring(42).Master",
		ExtraImports: []string{"graft/internal/algorithms"},
		Assert:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TestReproduceMasterSuperstep1",
		"repro.MockMasterContext",
		"master.Compute(ctx)",
		`"phase": pregel.NewText("SELECTION")`,
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated master test missing %q\n----\n%s", want, code)
		}
	}
}

func TestGeneratedExceptionTestExpectsFailure(t *testing.T) {
	boom := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if v.ID() == 7 && ctx.Superstep() == 1 {
			panic("planted")
		}
		if ctx.Superstep() >= 2 {
			v.VoteToHalt()
		}
		return nil
	})
	alg := &algorithms.Algorithm{Name: "boom", Compute: boom}
	g := graphgen.RegularBipartite(20, 3)
	db, runErr := captureRun(t, alg, g, core.DebugConfig{CaptureExceptions: true})
	if runErr == nil {
		t.Fatal("job should fail")
	}
	code, err := GenerateVertexTest(db, 1, 7, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "expected the captured exception to reproduce") {
		t.Errorf("exception branch missing:\n%s", code)
	}
}

// TestGeneratedTestCompilesAndPasses is the end-to-end check of the
// reproduce pipeline: the generated file is written into a scratch
// package of this module and executed with go test — the workflow a
// Graft user follows after clicking "Reproduce Vertex Context" (their
// generated test lives next to their algorithm, which is what lets it
// see the algorithm's registered value types).
func TestGeneratedTestCompilesAndPasses(t *testing.T) {
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

	db, _ := gcTrace(t)
	s := db.Supersteps()[1]
	code, err := GenerateVertexTest(db, s, 2, GenSpec{
		Package:         "reprogen",
		ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	masterCode, err := GenerateMasterTest(db, s, GenSpec{
		Package:      "reprogen",
		MasterExpr:   "algorithms.NewBuggyGraphColoring(42).Master",
		ExtraImports: []string{"graft/internal/algorithms"},
		Assert:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	suiteCode, err := GenerateVertexSuite(db, 3, GenSpec{
		Package:         "reprogen",
		ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The scratch package must live inside this module so it may
	// import graft/internal packages.
	dir, err := os.MkdirTemp(repoRoot, "tmp-reprogen-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "vertex_repro_test.go"), []byte(code), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "master_repro_test.go"), []byte(masterCode), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "suite_repro_test.go"), []byte(suiteCode), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(goBin, "test", "-count=1", "./"+filepath.Base(dir))
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated tests failed: %v\n%s\n---- generated code ----\n%s", err, out, code)
	}
}
