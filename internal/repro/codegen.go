package repro

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"text/template"

	"graft/internal/algorithms"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// GenSpec controls generated reproduction test files.
type GenSpec struct {
	// Package is the generated file's package name (default
	// "graftrepro").
	Package string
	// ComputationExpr is a Go expression evaluating to the user's
	// pregel.Computation, e.g.
	// "algorithms.NewGraphColoring(42).Compute". When empty, the
	// generated test declares a nil placeholder the user fills in (and
	// skips until they do), so the file always compiles.
	ComputationExpr string
	// MasterExpr is the analogous expression for master tests.
	MasterExpr string
	// SubgraphExpr is the analogous expression for subgraph-mode tests,
	// e.g. "algorithms.NewConnectedComponents().Subgraph".
	SubgraphExpr string
	// ExtraImports are additional import paths the expressions need.
	ExtraImports []string
	// Assert adds assertions that the replay matches the captured
	// outcome, turning the reproduction into a regression test (the
	// paper: "users can edit the JUnit test code generated by Graft
	// and turn it into a real unit test").
	Assert bool
}

// Resolve rebuilds the packaged algorithm a trace's manifest names, at
// the seed and superstep budget it recorded, with the GenSpec whose
// tests construct it: what `graft serve`, the GUI by default,
// `graft repro` without -comp and `graft trace-check` use. A manifest
// without a superstep budget (an older trace, a library caller) is
// read as the defaults. It returns nil and a zero GenSpec for a job
// that did not run a packaged algorithm.
func Resolve(meta trace.JobMeta) (*algorithms.Algorithm, GenSpec) {
	if meta.Supersteps == 0 { // recorded neither; with a budget, seed 0 is a seed
		meta.Seed, meta.Supersteps = algorithms.DefaultSeed, algorithms.DefaultSupersteps
	}
	alg, expr, err := algorithms.WithExpr(meta.Algorithm, meta.Seed, meta.Supersteps)
	if err != nil {
		return nil, GenSpec{}
	}
	spec := GenSpec{ComputationExpr: expr + ".Compute", ExtraImports: []string{"graft/internal/algorithms"}, Assert: true}
	if alg.Master != nil {
		spec.MasterExpr = expr + ".Master"
	}
	if alg.Subgraph != nil {
		spec.SubgraphExpr = expr + ".Subgraph"
	}
	return alg, spec
}

// ValueExpr renders a Go expression that reconstructs v. Builtin
// scalars become readable constructors (as in the paper's Figure 6);
// algorithm-specific composites embed their binary encoding with a
// display comment.
func ValueExpr(v pregel.Value) string {
	switch x := v.(type) {
	case nil:
		return "nil"
	case *pregel.NilValue:
		return "pregel.Nil()"
	case *pregel.BoolValue:
		return fmt.Sprintf("pregel.NewBool(%v)", x.Get())
	case *pregel.IntValue:
		return fmt.Sprintf("pregel.NewInt(%d)", x.Get())
	case *pregel.LongValue:
		return fmt.Sprintf("pregel.NewLong(%d)", x.Get())
	case *pregel.ShortValue:
		return fmt.Sprintf("pregel.NewShort(%d)", x.Get())
	case *pregel.DoubleValue:
		return fmt.Sprintf("pregel.NewDouble(%g)", x.Get())
	case *pregel.TextValue:
		return fmt.Sprintf("pregel.NewText(%q)", x.Get())
	default:
		enc := hex.EncodeToString(pregel.MarshalValue(v))
		return fmt.Sprintf("repro.MustDecodeValue(%q) /* %s */", enc, safeComment(v.String()))
	}
}

func safeComment(s string) string {
	s = strings.ReplaceAll(s, "*/", "* /")
	if len(s) > 60 {
		s = s[:60] + "…"
	}
	return s
}

func identSafe(id pregel.VertexID) string {
	if id < 0 {
		return fmt.Sprintf("Neg%d", -int64(id))
	}
	return fmt.Sprintf("%d", int64(id))
}

// fileData is one generated file: a header and its test functions.
type fileData struct {
	JobID   string
	Package string
	Imports []string
	// Subject names what the file reproduces, for its header comment.
	Subject string
	Tests   []testData
}

// testData is one generated test function. The fields through Assert
// are the header every capture kind shares; the rest belong to the
// kinds that have them.
type testData struct {
	Kind     string // "vertex", "subgraph" or "master": the template that renders it
	Mock     string // the mock context's type name in package repro
	CompType string // the computation's type
	Subject  string // the captured call, for the function's doc comment
	FuncName string

	Superstep   int
	Worker      int
	NumVertices int64
	NumEdges    int64
	AggLines    []string // "name": expr

	CompExpr     string // "" leaves a placeholder the user fills in
	HasException bool
	ExceptionMsg string
	Assert       bool

	Vertices   []vertexData // the vertex under test, or a subgraph's members
	WantValue  string
	WantDigest string
	WantSent   int64
	WantIters  int64
	WantSets   int
	WantHalted bool
}

// vertexData is one vertex a generated test rebuilds.
type vertexData struct {
	Var       string
	ID        int64
	ValueExpr string
	EdgeLines []string
	MsgLines  []string
}

var testTemplate = template.Must(template.New("file").Parse(`
{{- define "file"}}// Code generated by Graft's Context Reproducer; edit freely.
//
// Job {{printf "%q" .JobID}}: {{.Subject}}.
// Copy this file into a _test.go next to the computation under debug.
package {{.Package}}

import (
	"testing"
{{range .Imports}}
	{{printf "%q" .}}{{end}}
)
{{range .Tests}}
{{- if eq .Kind "vertex"}}{{template "vertex" .}}
{{- else if eq .Kind "subgraph"}}{{template "subgraph" .}}
{{- else}}{{template "master" .}}{{end}}
{{- end}}
{{- end}}

{{- define "head"}}
// {{.FuncName}} reproduces {{.Subject}}.
// Step through it with your line-by-line debugger
// (delve: dlv test -- -test.run {{.FuncName}}).
func {{.FuncName}}(t *testing.T) {
	// Mock the default global data the engine exposed to the computation.
	ctx := &repro.{{.Mock}}{MockBase: repro.MockBase{
		SuperstepN:  {{.Superstep}},
		NumVertices: {{.NumVertices}},
		NumEdges:    {{.NumEdges}},
		Worker:      {{.Worker}},
		Agg: map[string]pregel.Value{
{{- range .AggLines}}
			{{.}},
{{- end}}
		},
	}}
{{- if .Vertices}}
	// Reproduce each vertex: its value before compute and its out-edges.
{{- end}}
{{- range .Vertices}}
	{{.Var}} := pregel.NewDetachedVertex({{.ID}}, {{.ValueExpr}})
{{- $v := .}}
{{- range .EdgeLines}}
	{{$v.Var}}.AddEdge({{.}})
{{- end}}
{{- end}}
{{- end}}

{{- define "comp"}}
{{- if .CompExpr}}
	comp := {{.CompType}}({{.CompExpr}})
{{- else}}
	// TODO: set comp to the {{.CompType}} under debug.
	var comp {{.CompType}}
	if comp == nil {
		t.Skip("set comp to the computation under debug")
	}
{{- end}}
{{- end}}

{{- define "exception"}}
{{- if .HasException}}
	// The original run raised: {{.ExceptionMsg}}
	if err == nil {
		t.Error("expected the captured exception to reproduce, got success")
	}
{{- else}}
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
{{- end}}
{{- if .Assert}}

	// Assertions from the captured cluster execution.
{{- end}}
{{- end}}

{{- define "vertex"}}{{template "head" .}}
	// Reproduce the vertex's incoming messages.
	msgs := []pregel.Value{
{{- range (index .Vertices 0).MsgLines}}
		{{.}},
{{- end}}
	}
{{- template "comp" .}}
	// Finally, call vertex.compute().
	err := comp.Compute(ctx, vertex, msgs)
{{- template "exception" .}}
{{- if .Assert}}
	if got, want := pregel.ValueString(vertex.Value()), {{printf "%q" .WantValue}}; got != want {
		t.Errorf("value after compute = %s, want %s", got, want)
	}
	if got, want := len(ctx.Sent), {{.WantSent}}; got != want {
		t.Errorf("sent %d messages, want %d", got, want)
	}
	if got, want := vertex.Halted(), {{.WantHalted}}; got != want {
		t.Errorf("halted = %v, want %v", got, want)
	}
{{- end}}
}
{{end}}

{{- define "subgraph"}}{{template "head" .}}
	// Reproduce the component and its incoming boundary messages.
	sg := pregel.NewDetachedSubgraph([]*pregel.Vertex{
{{- range .Vertices}}
		{{.Var}},
{{- end}}
	}, map[pregel.VertexID][]pregel.Value{
{{- range .Vertices}}
{{- if .MsgLines}}
		{{.ID}}: {
{{- range .MsgLines}}
			{{.}},
{{- end}}
		},
{{- end}}
{{- end}}
	})
{{- template "comp" .}}
	// Finally, call ComputeSubgraph().
	err := comp.ComputeSubgraph(ctx, sg)
{{- template "exception" .}}
{{- if .Assert}}
	if got, want := sg.ValuesDigest(), {{printf "%q" .WantDigest}}; got != want {
		t.Errorf("member values digest = %s, want %s", got, want)
	}
	if got, want := len(ctx.Sent), {{.WantSent}}; got != want {
		t.Errorf("sent %d messages, want %d", got, want)
	}
	if got, want := ctx.Iterations, int64({{.WantIters}}); got != want {
		t.Errorf("internal iterations = %d, want %d", got, want)
	}
	if got, want := ctx.HaltedNow, {{.WantHalted}}; got != want {
		t.Errorf("halted = %v, want %v", got, want)
	}
{{- end}}
}
{{end}}

{{- define "master"}}{{template "head" .}}
{{- template "comp" .}}
	// Finally, call master.compute().
	err := comp.Compute(ctx)
{{- template "exception" .}}
{{- if .Assert}}
	if got, want := len(ctx.Sets), {{.WantSets}}; got != want {
		t.Errorf("master set %d aggregators, want %d", got, want)
	}
	if got, want := ctx.HaltedNow, {{.WantHalted}}; got != want {
		t.Errorf("halted = %v, want %v", got, want)
	}
{{- end}}
}
{{end}}`))

// render executes the file template over one or more tests.
func render(db *trace.Reader, spec *GenSpec, subject string, tests ...testData) (string, error) {
	f := fileData{JobID: db.JobMeta().JobID, Package: spec.Package, Subject: subject, Tests: tests}
	if f.Package == "" {
		f.Package = "graftrepro"
	}
	f.Imports = append([]string{"graft/internal/pregel", "graft/internal/repro"}, spec.ExtraImports...)
	sort.Strings(f.Imports)
	var b strings.Builder
	if err := testTemplate.ExecuteTemplate(&b, "file", &f); err != nil {
		return "", err
	}
	return b.String(), nil
}

// newTest fills the header every kind of generated test shares from
// the superstep's global data.
func newTest(kind, expr string, spec *GenSpec, meta *trace.SuperstepMeta, worker int) testData {
	d := testData{
		Kind:        kind,
		Superstep:   meta.Superstep,
		Worker:      worker,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		AggLines:    aggLines(meta.Aggregated),
		CompExpr:    expr,
		Assert:      spec.Assert,
	}
	switch kind {
	case "vertex":
		d.Mock, d.CompType = "MockContext", "pregel.Computation"
	case "subgraph":
		d.Mock, d.CompType = "MockSubgraphContext", "pregel.SubgraphComputation"
	default:
		d.Mock, d.CompType = "MockMasterContext", "pregel.MasterComputation"
	}
	return d
}

// setException records a captured exception the test must reproduce.
func (d *testData) setException(e *trace.ExceptionInfo) {
	if e != nil {
		d.HasException = true
		d.ExceptionMsg = strings.ReplaceAll(e.Message, "\n", " ")
	}
}

// aggLines renders aggregator values as map-literal lines, sorted by
// name.
func aggLines(agg map[string]pregel.Value) []string {
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	lines := make([]string, len(names))
	for i, name := range names {
		lines[i] = fmt.Sprintf("%q: %s", name, ValueExpr(agg[name]))
	}
	return lines
}

// newVertexData renders a captured vertex's pre-compute value, edges and
// inbox as the expressions that rebuild it.
func newVertexData(varName string, c *trace.VertexCapture) vertexData {
	d := vertexData{Var: varName, ID: int64(c.ID), ValueExpr: ValueExpr(c.ValueBefore)}
	for _, e := range c.Edges {
		if e.Value == nil {
			d.EdgeLines = append(d.EdgeLines, fmt.Sprintf("pregel.Edge{Target: %d}", int64(e.Target)))
		} else {
			d.EdgeLines = append(d.EdgeLines,
				fmt.Sprintf("pregel.Edge{Target: %d, Value: %s}", int64(e.Target), ValueExpr(e.Value)))
		}
	}
	for _, m := range c.Incoming {
		d.MsgLines = append(d.MsgLines, ValueExpr(m))
	}
	return d
}

// GenerateVertexTest renders a standalone Go test reproducing the
// context of vertex id at the given superstep (the Go analogue of the
// paper's Figure 6 JUnit file). In a subgraph-mode trace that context
// is the component holding the vertex, rebuilt member by member.
func GenerateVertexTest(db *trace.Reader, superstep int, id pregel.VertexID, spec GenSpec) (string, error) {
	d, err := captureTest(db, superstep, id, &spec)
	if err != nil {
		return "", err
	}
	return render(db, &spec, d.Subject, d)
}

// GenerateVertexSuite renders one file with a reproduction test for
// every captured superstep of a vertex: contexts that "emerge at large
// scale" become a reusable unit-test suite (the unit-testing extension
// of paper §7). In a subgraph-mode trace each test is the component's
// that held the vertex at that superstep.
func GenerateVertexSuite(db *trace.Reader, id pregel.VertexID, spec GenSpec) (string, error) {
	history := db.CapturesOf(id)
	if len(history) == 0 {
		return "", fmt.Errorf("repro: no captures of vertex %d", id)
	}
	tests := make([]testData, len(history))
	for i, c := range history {
		d, err := captureTest(db, c.Superstep, id, &spec)
		if err != nil {
			return "", err
		}
		tests[i] = d
	}
	return render(db, &spec, fmt.Sprintf("every captured context of vertex %d, one test per superstep", id), tests...)
}

// captureTest is the test of vertex id's context at superstep: the
// vertex's, or in a subgraph-mode trace its component's.
func captureTest(db *trace.Reader, superstep int, id pregel.VertexID, spec *GenSpec) (testData, error) {
	if db.JobMeta().ComputeMode == "subgraph" {
		return subgraphTest(db, superstep, id, spec)
	}
	return vertexTest(db, superstep, id, spec)
}

func vertexTest(db *trace.Reader, superstep int, id pregel.VertexID, spec *GenSpec) (testData, error) {
	c := db.Capture(superstep, id)
	if c == nil {
		return testData{}, fmt.Errorf("repro: no capture of vertex %d at superstep %d", id, superstep)
	}
	meta, err := metaAt(db, superstep)
	if err != nil {
		return testData{}, err
	}
	d := newTest("vertex", spec.ComputationExpr, spec, meta, c.Worker)
	d.Subject = fmt.Sprintf("the context under which vertex %d executed compute() in superstep %d (worker %d)",
		int64(id), superstep, c.Worker)
	d.FuncName = fmt.Sprintf("TestReproduceVertex%sSuperstep%d", identSafe(id), superstep)
	d.Vertices = []vertexData{newVertexData("vertex", c)}
	d.setException(c.Exception)
	d.WantValue = pregel.ValueString(c.ValueAfter)
	d.WantSent = int64(len(c.Outgoing))
	d.WantHalted = c.HaltedAfter
	return d, nil
}

// subgraphTest reproduces the ComputeSubgraph context of the subgraph
// containing vertex id at the given superstep. The member contexts come
// from the per-member VertexCapture records written alongside the
// SubgraphCapture, so a subgraph step is rebuilt member by member —
// single-vertex debuggable even though the unit of compute is a
// component.
func subgraphTest(db *trace.Reader, superstep int, id pregel.VertexID, spec *GenSpec) (testData, error) {
	sc := db.SubgraphAt(superstep, id)
	if sc == nil {
		return testData{}, fmt.Errorf("repro: no subgraph capture containing vertex %d at superstep %d", id, superstep)
	}
	meta, err := metaAt(db, superstep)
	if err != nil {
		return testData{}, err
	}
	members, err := memberCaptures(db, sc)
	if err != nil {
		return testData{}, err
	}
	d := newTest("subgraph", spec.SubgraphExpr, spec, meta, sc.Worker)
	d.Subject = fmt.Sprintf("the context under which subgraph %d (%d members) executed ComputeSubgraph in superstep %d (worker %d)",
		int64(sc.ID), len(sc.Members), superstep, sc.Worker)
	d.FuncName = fmt.Sprintf("TestReproduceSubgraph%sSuperstep%d", identSafe(sc.ID), superstep)
	for i, c := range members {
		d.Vertices = append(d.Vertices, newVertexData(fmt.Sprintf("m%d", i), c))
		d.setException(c.Exception)
	}
	d.WantDigest = sc.Digest
	d.WantSent = sc.MessagesSent
	d.WantIters = sc.Iterations
	d.WantHalted = sc.HaltedAfter
	return d, nil
}

// GenerateMasterTest renders a standalone Go test reproducing the
// master.compute context of one superstep.
func GenerateMasterTest(db *trace.Reader, superstep int, spec GenSpec) (string, error) {
	c := db.MasterAt(superstep)
	if c == nil {
		return "", fmt.Errorf("repro: no master capture at superstep %d", superstep)
	}
	d := newTest("master", spec.MasterExpr, &spec, masterMeta(c), 0)
	d.Subject = fmt.Sprintf("the context under which master.compute() executed in superstep %d", superstep)
	d.FuncName = fmt.Sprintf("TestReproduceMasterSuperstep%d", superstep)
	d.setException(c.Exception)
	d.WantSets = len(c.Sets)
	d.WantHalted = c.Halted
	return render(db, &spec, d.Subject, d)
}
