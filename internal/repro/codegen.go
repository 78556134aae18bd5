package repro

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"text/template"

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

func (s *GenSpec) pkg() string {
	if s.Package == "" {
		return "graftrepro"
	}
	return s.Package
}

// valueExpr renders a Go expression that reconstructs v. Builtin
// scalars become readable constructors (as in the paper's Figure 6);
// algorithm-specific composites embed their binary encoding with a
// display comment.
func valueExpr(v pregel.Value) string {
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

type vertexTestData struct {
	JobID     string
	Package   string
	Imports   []string
	FuncName  string
	VertexID  int64
	Superstep int
	Worker    int

	NumVertices int64
	NumEdges    int64
	AggLines    []string // "name": expr
	EdgeLines   []string
	MsgLines    []string
	ValueExpr   string

	CompExpr    string
	Placeholder bool

	HasException bool
	ExceptionMsg string
	Assert       bool
	WantValue    string
	WantSent     int
	WantHalted   bool
}

// vertexTestBodySrc renders one reproduction test function; the file
// templates below wrap one or many bodies with a package clause and
// imports.
const vertexTestBodySrc = `{{define "vertexBody"}}
// Reproduces the exact context under which vertex {{.VertexID}}
// executed compute() in superstep {{.Superstep}} (worker {{.Worker}}).
// Step through Compute with your line-by-line debugger
// (delve: dlv test -- -test.run {{.FuncName}}).
func {{.FuncName}}(t *testing.T) {
	// Mock the default global data the engine exposed to the vertex.
	ctx := &repro.MockContext{
		SuperstepN:  {{.Superstep}},
		NumVertices: {{.NumVertices}},
		NumEdges:    {{.NumEdges}},
		Worker:      {{.Worker}},
		Agg: map[string]pregel.Value{
{{- range .AggLines}}
			{{.}},
{{- end}}
		},
	}
	// Reproduce the vertex's value.
	vertex := pregel.NewDetachedVertex({{.VertexID}}, {{.ValueExpr}})
	// Reproduce the vertex's outgoing neighbors.
{{- range .EdgeLines}}
	vertex.AddEdge({{.}})
{{- end}}
	// Reproduce the vertex's incoming messages.
	msgs := []pregel.Value{
{{- range .MsgLines}}
		{{.}},
{{- end}}
	}
{{- if .Placeholder}}
	// TODO: set comp to the computation under debug, e.g.
	//   comp := algorithms.NewGraphColoring(seed).Compute
	var comp pregel.Computation
	if comp == nil {
		t.Skip("set comp to the computation under debug")
	}
{{- else}}
	comp := pregel.Computation({{.CompExpr}})
{{- end}}
	// Finally, call vertex.compute().
	err := comp.Compute(ctx, vertex, msgs)
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
{{end}}`

var vertexTestTemplate = template.Must(template.New("vertexFile").Parse(vertexTestBodySrc + `// Code generated by Graft's Context Reproducer; edit freely.
//
// Job {{printf "%q" .JobID}}: the exact context under which vertex
// {{.VertexID}} executed compute() in superstep {{.Superstep}}.
// Copy this file into a _test.go next to the computation under debug.
package {{.Package}}

import (
	"testing"
{{range .Imports}}
	{{printf "%q" .}}{{end}}
)
{{template "vertexBody" .}}`))

type vertexSuiteData struct {
	JobID    string
	Package  string
	Imports  []string
	VertexID int64
	Bodies   []vertexTestData
}

var vertexSuiteTemplate = template.Must(template.New("vertexSuite").Parse(vertexTestBodySrc + `// Code generated by Graft's Context Reproducer; edit freely.
//
// Job {{printf "%q" .JobID}}: every captured context of vertex
// {{.VertexID}}, one test per superstep — the capture history as a
// regression suite (the unit-testing extension of paper §7).
package {{.Package}}

import (
	"testing"
{{range .Imports}}
	{{printf "%q" .}}{{end}}
)
{{range .Bodies}}{{template "vertexBody" .}}{{end}}`))

// GenerateVertexTest renders a standalone Go test reproducing the
// context of vertex id at the given superstep (the Go analogue of the
// paper's Figure 6 JUnit file).
func GenerateVertexTest(db *trace.Reader, superstep int, id pregel.VertexID, spec GenSpec) (string, error) {
	data, err := buildVertexTestData(db, superstep, id, spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := vertexTestTemplate.Execute(&b, &data); err != nil {
		return "", err
	}
	return b.String(), nil
}

// GenerateVertexSuite renders one file with a reproduction test for
// every captured superstep of a vertex: contexts that "emerge at large
// scale" become a reusable unit-test suite.
func GenerateVertexSuite(db *trace.Reader, id pregel.VertexID, spec GenSpec) (string, error) {
	history := db.CapturesOf(id)
	if len(history) == 0 {
		return "", fmt.Errorf("repro: no captures of vertex %d", id)
	}
	suite := vertexSuiteData{
		JobID:    db.JobMeta().JobID,
		Package:  spec.pkg(),
		VertexID: int64(id),
	}
	suite.Imports = append([]string{"graft/internal/pregel", "graft/internal/repro"}, spec.ExtraImports...)
	sort.Strings(suite.Imports)
	for _, c := range history {
		data, err := buildVertexTestData(db, c.Superstep, id, spec)
		if err != nil {
			return "", err
		}
		suite.Bodies = append(suite.Bodies, data)
	}
	var b strings.Builder
	if err := vertexSuiteTemplate.Execute(&b, &suite); err != nil {
		return "", err
	}
	return b.String(), nil
}

func buildVertexTestData(db *trace.Reader, superstep int, id pregel.VertexID, spec GenSpec) (vertexTestData, error) {
	c := db.Capture(superstep, id)
	if c == nil {
		return vertexTestData{}, fmt.Errorf("repro: no capture of vertex %d at superstep %d", id, superstep)
	}
	meta := db.MetaAt(superstep)
	if meta == nil {
		return vertexTestData{}, fmt.Errorf("repro: no superstep metadata for superstep %d", superstep)
	}
	data := vertexTestData{
		JobID:       db.JobMeta().JobID,
		Package:     spec.pkg(),
		FuncName:    fmt.Sprintf("TestReproduceVertex%sSuperstep%d", identSafe(id), superstep),
		VertexID:    int64(id),
		Superstep:   superstep,
		Worker:      c.Worker,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		ValueExpr:   valueExpr(c.ValueBefore),
		CompExpr:    spec.ComputationExpr,
		Placeholder: spec.ComputationExpr == "",
		Assert:      spec.Assert,
	}
	data.Imports = append([]string{"graft/internal/pregel", "graft/internal/repro"}, spec.ExtraImports...)
	sort.Strings(data.Imports)

	aggNames := make([]string, 0, len(meta.Aggregated))
	for name := range meta.Aggregated {
		aggNames = append(aggNames, name)
	}
	sort.Strings(aggNames)
	for _, name := range aggNames {
		data.AggLines = append(data.AggLines,
			fmt.Sprintf("%q: %s", name, valueExpr(meta.Aggregated[name])))
	}
	for _, e := range c.Edges {
		if e.Value == nil {
			data.EdgeLines = append(data.EdgeLines,
				fmt.Sprintf("pregel.Edge{Target: %d}", int64(e.Target)))
		} else {
			data.EdgeLines = append(data.EdgeLines,
				fmt.Sprintf("pregel.Edge{Target: %d, Value: %s}", int64(e.Target), valueExpr(e.Value)))
		}
	}
	for _, m := range c.Incoming {
		data.MsgLines = append(data.MsgLines, valueExpr(m))
	}
	if c.Exception != nil {
		data.HasException = true
		data.ExceptionMsg = strings.ReplaceAll(c.Exception.Message, "\n", " ")
	}
	if spec.Assert {
		data.WantValue = pregel.ValueString(c.ValueAfter)
		data.WantSent = len(c.Outgoing)
		data.WantHalted = c.HaltedAfter
	}
	return data, nil
}

type masterTestData struct {
	JobID     string
	Package   string
	Imports   []string
	FuncName  string
	Superstep int

	NumVertices int64
	NumEdges    int64
	AggLines    []string

	MasterExpr  string
	Placeholder bool

	HasException bool
	ExceptionMsg string
	Assert       bool
	WantSets     int
	WantHalted   bool
}

var masterTestTemplate = template.Must(template.New("master").Parse(`// Code generated by Graft's Context Reproducer; edit freely.
//
// Job {{printf "%q" .JobID}}: reproduces the exact context under which
// master.compute() executed in superstep {{.Superstep}}.
package {{.Package}}

import (
	"testing"
{{range .Imports}}
	{{printf "%q" .}}{{end}}
)

func {{.FuncName}}(t *testing.T) {
	// Mock the aggregator values the master saw at the beginning of
	// the superstep.
	ctx := &repro.MockMasterContext{
		SuperstepN:  {{.Superstep}},
		NumVertices: {{.NumVertices}},
		NumEdges:    {{.NumEdges}},
		Agg: map[string]pregel.Value{
{{- range .AggLines}}
			{{.}},
{{- end}}
		},
	}
{{- if .Placeholder}}
	// TODO: set master to the master computation under debug.
	var master pregel.MasterComputation
	if master == nil {
		t.Skip("set master to the master computation under debug")
	}
{{- else}}
	master := pregel.MasterComputation({{.MasterExpr}})
{{- end}}
	// Finally, call master.compute().
	err := master.Compute(ctx)
{{- if .HasException}}
	// The original run raised: {{.ExceptionMsg}}
	if err == nil {
		t.Error("expected the captured exception to reproduce, got success")
	}
{{- else}}
	if err != nil {
		t.Fatalf("master compute: %v", err)
	}
{{- end}}
{{- if .Assert}}

	// Assertions from the captured cluster execution.
	if got, want := len(ctx.Sets), {{.WantSets}}; got != want {
		t.Errorf("master set %d aggregators, want %d", got, want)
	}
	if got, want := ctx.HaltedNow, {{.WantHalted}}; got != want {
		t.Errorf("halted = %v, want %v", got, want)
	}
{{- end}}
}
`))

// GenerateMasterTest renders a standalone Go test reproducing the
// master.compute context of one superstep.
func GenerateMasterTest(db *trace.Reader, superstep int, spec GenSpec) (string, error) {
	c := db.MasterAt(superstep)
	if c == nil {
		return "", fmt.Errorf("repro: no master capture at superstep %d", superstep)
	}
	data := masterTestData{
		JobID:       db.JobMeta().JobID,
		Package:     spec.pkg(),
		FuncName:    fmt.Sprintf("TestReproduceMasterSuperstep%d", superstep),
		Superstep:   superstep,
		NumVertices: c.NumVertices,
		NumEdges:    c.NumEdges,
		MasterExpr:  spec.MasterExpr,
		Placeholder: spec.MasterExpr == "",
		Assert:      spec.Assert,
	}
	data.Imports = append([]string{"graft/internal/pregel", "graft/internal/repro"}, spec.ExtraImports...)
	sort.Strings(data.Imports)

	aggNames := make([]string, 0, len(c.AggregatedBefore))
	for name := range c.AggregatedBefore {
		aggNames = append(aggNames, name)
	}
	sort.Strings(aggNames)
	for _, name := range aggNames {
		data.AggLines = append(data.AggLines,
			fmt.Sprintf("%q: %s", name, valueExpr(c.AggregatedBefore[name])))
	}
	if c.Exception != nil {
		data.HasException = true
		data.ExceptionMsg = strings.ReplaceAll(c.Exception.Message, "\n", " ")
	}
	if spec.Assert {
		data.WantSets = len(c.Sets)
		data.WantHalted = c.Halted
	}

	var b strings.Builder
	if err := masterTestTemplate.Execute(&b, &data); err != nil {
		return "", err
	}
	return b.String(), nil
}
