package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"sync/atomic"
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
		if got := ValueExpr(c.v); got != c.want {
			t.Errorf("ValueExpr(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	// Composite values fall back to hex + display comment.
	got := ValueExpr(pregel.NewLongList(1, 2))
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
		"repro.MockMasterContext{MockBase: repro.MockBase{",
		"comp.Compute(ctx)",
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

// The planted computations read package-level counters, so no capture
// of theirs replays: each call after the run sees a count the run never
// did. plantedSrc declares the same three in a generated test's package.
var (
	plantedCalls, plantedMasterCalls atomic.Int64

	plantedCompute = pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		v.SetValue(pregel.NewLong(plantedCalls.Add(1)))
		if ctx.Superstep() >= 2 {
			v.VoteToHalt()
		}
		return nil
	})
	plantedSubgraph = pregel.SubgraphFunc(func(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
		n := plantedCalls.Add(1)
		for _, v := range sg.Members() {
			v.SetValue(pregel.NewLong(n))
		}
		if ctx.Superstep() >= 2 {
			ctx.VoteToHalt()
		}
		return nil
	})
)

type plantedMaster struct{}

func (plantedMaster) Compute(ctx pregel.MasterContext) error {
	if plantedMasterCalls.Add(1) == 2 {
		ctx.HaltComputation()
	}
	return nil
}

const plantedSrc = `package reprogen

import (
	"sync/atomic"

	"graft/internal/pregel"
)

var plantedCalls, plantedMasterCalls atomic.Int64

var plantedCompute = pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
	v.SetValue(pregel.NewLong(plantedCalls.Add(1)))
	if ctx.Superstep() >= 2 {
		v.VoteToHalt()
	}
	return nil
})

var plantedSubgraph = pregel.SubgraphFunc(func(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
	n := plantedCalls.Add(1)
	for _, v := range sg.Members() {
		v.SetValue(pregel.NewLong(n))
	}
	if ctx.Superstep() >= 2 {
		ctx.VoteToHalt()
	}
	return nil
})

type plantedMaster struct{}

func (plantedMaster) Compute(ctx pregel.MasterContext) error {
	if plantedMasterCalls.Add(1) == 2 {
		ctx.HaltComputation()
	}
	return nil
}
`

// TestGeneratedTestCompilesAndPasses is the end-to-end check of the
// reproduce pipeline for every capture kind: each row's generated file
// is written into a scratch package of this module and executed with go
// test — the workflow a Graft user follows after clicking "Reproduce
// Context" (their generated test lives next to their algorithm, which
// is what lets it see the algorithm's registered value types) — and it
// must pass exactly when CheckTrace finds that the row's captures
// replay. The planted rows must fail both.
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

	plantedCalls.Store(0) // the master halts on its second call of this run
	plantedMasterCalls.Store(0)
	gcDB, gcAlg := gcTrace(t)
	gcStep := gcDB.Supersteps()[1]
	wccDB := wccSubgraphTrace(t)
	wccStep, wcc := firstSubgraph(t, wccDB)
	_, wccSpec := Resolve(wccDB.JobMeta())
	pv := &algorithms.Algorithm{Name: "planted", Compute: plantedCompute}
	pvDB, err := captureRun(t, pv, graphgen.RegularBipartite(20, 2), core.DebugConfig{CaptureIDs: []pregel.VertexID{5}})
	if err != nil {
		t.Fatal(err)
	}
	ps := &algorithms.Algorithm{Name: "planted", Subgraph: plantedSubgraph}
	psDB := subgraphCaptureRun(t, ps, graphgen.RegularBipartite(20, 2), core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
	// Both planted computations halt at superstep 2, by when the counter
	// is well past 1, the first count a generated test's process sees.
	const plantedStep = 2
	psID := psDB.SubgraphsAt(plantedStep)[0].ID
	pm := &algorithms.Algorithm{Name: "planted", Master: plantedMaster{},
		Compute: pregel.ComputeFunc(func(pregel.Context, *pregel.Vertex, []pregel.Value) error { return nil })}
	pmDB, err := captureRun(t, pm, graphgen.RegularBipartite(20, 2), core.DebugConfig{CaptureIDs: []pregel.VertexID{0}})
	if err != nil {
		t.Fatal(err)
	}

	algs := []string{"graft/internal/algorithms"}
	rows := []struct {
		name      string
		db        *trace.Reader
		alg       *algorithms.Algorithm
		kind      string
		superstep int // -1: every captured superstep of id
		id        pregel.VertexID
		spec      GenSpec
		gen       func(GenSpec) (string, error)
		planted   bool
	}{
		{name: "vertex", db: gcDB, alg: gcAlg, kind: "vertex", superstep: gcStep, id: 2,
			spec: GenSpec{ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute", ExtraImports: algs},
			gen:  func(s GenSpec) (string, error) { return GenerateVertexTest(gcDB, gcStep, 2, s) }},
		{name: "vertex-suite", db: gcDB, alg: gcAlg, kind: "vertex", superstep: -1, id: 3,
			spec: GenSpec{ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute", ExtraImports: algs},
			gen:  func(s GenSpec) (string, error) { return GenerateVertexSuite(gcDB, 3, s) }},
		{name: "subgraph", db: wccDB, alg: algorithms.NewConnectedComponents(), kind: "subgraph", superstep: wccStep, id: wcc.ID,
			spec: GenSpec{SubgraphExpr: "algorithms.NewConnectedComponents().Subgraph", ExtraImports: algs},
			gen:  func(s GenSpec) (string, error) { return GenerateVertexTest(wccDB, wccStep, wcc.ID, s) }},
		// In a subgraph-mode trace a vertex's suite is its component's
		// tests, built with the constructor Resolve reads off the manifest.
		{name: "subgraph-suite", db: wccDB, alg: algorithms.NewConnectedComponents(), kind: "subgraph", superstep: -1, id: wcc.ID,
			spec: wccSpec,
			gen:  func(s GenSpec) (string, error) { return GenerateVertexSuite(wccDB, wcc.ID, s) }},
		{name: "master", db: gcDB, alg: gcAlg, kind: "master", superstep: gcStep,
			spec: GenSpec{MasterExpr: "algorithms.NewBuggyGraphColoring(42).Master", ExtraImports: algs},
			gen:  func(s GenSpec) (string, error) { return GenerateMasterTest(gcDB, gcStep, s) }},
		{name: "planted-vertex", db: pvDB, alg: pv, kind: "vertex", superstep: plantedStep, id: 5, planted: true,
			spec: GenSpec{ComputationExpr: "plantedCompute"},
			gen:  func(s GenSpec) (string, error) { return GenerateVertexTest(pvDB, plantedStep, 5, s) }},
		{name: "planted-subgraph", db: psDB, alg: ps, kind: "subgraph", superstep: plantedStep, id: psID, planted: true,
			spec: GenSpec{SubgraphExpr: "plantedSubgraph"},
			gen:  func(s GenSpec) (string, error) { return GenerateVertexTest(psDB, plantedStep, psID, s) }},
		{name: "planted-master", db: pmDB, alg: pm, kind: "master", superstep: 1, planted: true,
			spec: GenSpec{MasterExpr: "plantedMaster{}"},
			gen:  func(s GenSpec) (string, error) { return GenerateMasterTest(pmDB, 1, s) }},
	}

	// The scratch packages must live inside this module so they may
	// import graft/internal packages; one go test builds them all.
	dir, err := os.MkdirTemp(repoRoot, "tmp-reprogen-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for _, row := range rows {
		row.spec.Package, row.spec.Assert = "reprogen", true
		code, err := row.gen(row.spec)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		files := map[string]string{"repro_test.go": code}
		if row.planted {
			files["planted.go"] = plantedSrc
		}
		for name, src := range files {
			if err := os.MkdirAll(filepath.Join(dir, row.name), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, row.name, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmd := exec.Command(goBin, "test", "-count=1", "-json", "./"+filepath.Base(dir)+"/...")
	cmd.Dir = repoRoot
	out, _ := cmd.Output() // a failing package is an outcome here
	passed, ran, logs := map[string]bool{}, map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal([]byte(line), &ev) != nil {
			continue
		}
		row := path.Base(ev.Package)
		logs[row] += ev.Output
		switch {
		case ev.Test != "" && (ev.Action == "pass" || ev.Action == "fail"):
			ran[row] = true
		case ev.Test == "" && ev.Action == "pass":
			passed[row] = true
		}
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if !ran[row.name] {
				t.Fatalf("the generated test did not run:\n%s", logs[row.name])
			}
			diverged, err := CheckTrace(row.db, row.alg)
			if err != nil {
				t.Fatal(err)
			}
			replays := true
			for _, c := range diverged {
				if c.Kind == row.kind && c.ID == row.id && (row.superstep < 0 || c.Superstep == row.superstep) {
					replays = false
				}
			}
			if replays == row.planted {
				t.Errorf("CheckTrace says the capture replays: %v, want %v (divergences %v)", replays, !row.planted, diverged)
			}
			if passed[row.name] != replays {
				t.Errorf("generated test passed: %v, CheckTrace says it replays: %v\n%s", passed[row.name], replays, logs[row.name])
			}
		})
	}
}
