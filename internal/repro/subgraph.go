package repro

import (
	"fmt"
	"sort"
	"strings"
	"text/template"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// SubgraphSent is one recorded SendMessage of a replayed subgraph
// compute, with the sending member attributed.
type SubgraphSent struct {
	From  pregel.VertexID
	To    pregel.VertexID
	Value pregel.Value
}

// MockSubgraphContext implements pregel.SubgraphContext from captured
// data: the subgraph-mode counterpart of MockContext. It records
// everything the replayed ComputeSubgraph does.
type MockSubgraphContext struct {
	SuperstepN  int
	NumVertices int64
	NumEdges    int64
	Worker      int
	Agg         map[string]pregel.Value

	// Recorded effects of the replayed compute call.
	Sent       []SubgraphSent
	Aggregated []trace.AggSet
	Iterations int64
	HaltedNow  bool
}

// NewMockSubgraphContext builds a MockSubgraphContext from a captured
// superstep's metadata.
func NewMockSubgraphContext(meta *trace.SuperstepMeta, worker int) *MockSubgraphContext {
	agg := make(map[string]pregel.Value, len(meta.Aggregated))
	for name, v := range meta.Aggregated {
		agg[name] = pregel.CloneValue(v)
	}
	return &MockSubgraphContext{
		SuperstepN:  meta.Superstep,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		Worker:      worker,
		Agg:         agg,
	}
}

// Superstep implements pregel.SubgraphContext.
func (m *MockSubgraphContext) Superstep() int { return m.SuperstepN }

// TotalNumVertices implements pregel.SubgraphContext.
func (m *MockSubgraphContext) TotalNumVertices() int64 { return m.NumVertices }

// TotalNumEdges implements pregel.SubgraphContext.
func (m *MockSubgraphContext) TotalNumEdges() int64 { return m.NumEdges }

// WorkerID implements pregel.SubgraphContext.
func (m *MockSubgraphContext) WorkerID() int { return m.Worker }

// GetAggregated implements pregel.SubgraphContext.
func (m *MockSubgraphContext) GetAggregated(name string) pregel.Value {
	v, ok := m.Agg[name]
	if !ok {
		panic(fmt.Sprintf("repro: GetAggregated(%q): aggregator not in captured context", name))
	}
	return v
}

// Aggregate implements pregel.SubgraphContext, recording the call.
func (m *MockSubgraphContext) Aggregate(name string, val pregel.Value) {
	m.Aggregated = append(m.Aggregated, trace.AggSet{Name: name, Value: pregel.CloneValue(val)})
}

// SendMessage implements pregel.SubgraphContext, recording the message
// with its sending member.
func (m *MockSubgraphContext) SendMessage(from, to pregel.VertexID, msg pregel.Value) {
	m.Sent = append(m.Sent, SubgraphSent{From: from, To: to, Value: msg})
}

// VoteToHalt implements pregel.SubgraphContext.
func (m *MockSubgraphContext) VoteToHalt() { m.HaltedNow = true }

// AddIterations implements pregel.SubgraphContext.
func (m *MockSubgraphContext) AddIterations(n int64) { m.Iterations += n }

type subgraphMemberData struct {
	Var       string
	VertexID  int64
	ValueExpr string
	EdgeLines []string
	MsgLines  []string
}

type subgraphTestData struct {
	JobID      string
	Package    string
	Imports    []string
	FuncName   string
	SubgraphID int64
	Superstep  int
	Worker     int

	NumVertices int64
	NumEdges    int64
	AggLines    []string
	Members     []subgraphMemberData

	CompExpr    string
	Placeholder bool

	HasException bool
	ExceptionMsg string
	Assert       bool
	WantDigest   string
	WantSent     int64
	WantIters    int64
	WantHalted   bool
}

var subgraphTestTemplate = template.Must(template.New("subgraph").Parse(`// Code generated by Graft's Context Reproducer; edit freely.
//
// Job {{printf "%q" .JobID}}: reproduces the exact context under which
// subgraph {{.SubgraphID}} ({{len .Members}} members) executed
// ComputeSubgraph in superstep {{.Superstep}} (worker {{.Worker}}).
// Step through it with your line-by-line debugger
// (delve: dlv test -- -test.run {{.FuncName}}).
package {{.Package}}

import (
	"testing"
{{range .Imports}}
	{{printf "%q" .}}{{end}}
)

func {{.FuncName}}(t *testing.T) {
	// Mock the default global data the engine exposed to the subgraph.
	ctx := &repro.MockSubgraphContext{
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
	// Reproduce each member vertex: pre-compute value and out-edges.
{{- range .Members}}
	{{.Var}} := pregel.NewDetachedVertex({{.VertexID}}, {{.ValueExpr}})
{{- $m := .}}
{{- range .EdgeLines}}
	{{$m.Var}}.AddEdge({{.}})
{{- end}}
{{- end}}
	// Reproduce the component and its incoming boundary messages.
	sg := pregel.NewDetachedSubgraph([]*pregel.Vertex{
{{- range .Members}}
		{{.Var}},
{{- end}}
	}, map[pregel.VertexID][]pregel.Value{
{{- range .Members}}
{{- if .MsgLines}}
		{{.VertexID}}: {
{{- range .MsgLines}}
			{{.}},
{{- end}}
		},
{{- end}}
{{- end}}
	})
{{- if .Placeholder}}
	// TODO: set comp to the subgraph computation under debug, e.g.
	//   comp := algorithms.NewConnectedComponents().Subgraph
	var comp pregel.SubgraphComputation
	if comp == nil {
		t.Skip("set comp to the subgraph computation under debug")
	}
{{- else}}
	comp := pregel.SubgraphComputation({{.CompExpr}})
{{- end}}
	// Finally, call ComputeSubgraph().
	err := comp.ComputeSubgraph(ctx, sg)
{{- if .HasException}}
	// The original run raised: {{.ExceptionMsg}}
	if err == nil {
		t.Error("expected the captured exception to reproduce, got success")
	}
{{- else}}
	if err != nil {
		t.Fatalf("compute subgraph: %v", err)
	}
{{- end}}
{{- if .Assert}}

	// Assertions from the captured cluster execution.
	if got, want := sg.ValuesDigest(), {{printf "%q" .WantDigest}}; got != want {
		t.Errorf("member values digest = %s, want %s", got, want)
	}
	if got, want := int64(len(ctx.Sent)), int64({{.WantSent}}); got != want {
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
`))

// GenerateSubgraphTest renders a standalone Go test reproducing the
// ComputeSubgraph context of the subgraph containing vertex id at the
// given superstep. The member contexts come from the per-member
// VertexCapture records written alongside the SubgraphCapture, so a
// subgraph step is rebuilt member by member — single-vertex debuggable
// even though the unit of compute is a component.
func GenerateSubgraphTest(db *trace.Reader, superstep int, id pregel.VertexID, spec GenSpec) (string, error) {
	sc := db.SubgraphAt(superstep, id)
	if sc == nil {
		return "", fmt.Errorf("repro: no subgraph capture containing vertex %d at superstep %d", id, superstep)
	}
	meta := db.MetaAt(superstep)
	if meta == nil {
		return "", fmt.Errorf("repro: no superstep metadata for superstep %d", superstep)
	}
	data := subgraphTestData{
		JobID:       db.JobMeta().JobID,
		Package:     spec.pkg(),
		FuncName:    fmt.Sprintf("TestReproduceSubgraph%sSuperstep%d", identSafe(sc.ID), superstep),
		SubgraphID:  int64(sc.ID),
		Superstep:   superstep,
		Worker:      sc.Worker,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		CompExpr:    spec.SubgraphExpr,
		Placeholder: spec.SubgraphExpr == "",
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

	for i, mid := range sc.Members {
		c := db.Capture(superstep, mid)
		if c == nil {
			return "", fmt.Errorf("repro: subgraph %d at superstep %d: member %d has no vertex capture (capture limit hit?)",
				int64(sc.ID), superstep, int64(mid))
		}
		m := subgraphMemberData{
			Var:       fmt.Sprintf("m%d", i),
			VertexID:  int64(mid),
			ValueExpr: valueExpr(c.ValueBefore),
		}
		for _, e := range c.Edges {
			if e.Value == nil {
				m.EdgeLines = append(m.EdgeLines,
					fmt.Sprintf("pregel.Edge{Target: %d}", int64(e.Target)))
			} else {
				m.EdgeLines = append(m.EdgeLines,
					fmt.Sprintf("pregel.Edge{Target: %d, Value: %s}", int64(e.Target), valueExpr(e.Value)))
			}
		}
		for _, msg := range c.Incoming {
			m.MsgLines = append(m.MsgLines, valueExpr(msg))
		}
		data.Members = append(data.Members, m)
		if c.Exception != nil {
			data.HasException = true
			data.ExceptionMsg = strings.ReplaceAll(c.Exception.Message, "\n", " ")
		}
	}
	if spec.Assert {
		data.WantDigest = sc.Digest
		data.WantSent = sc.MessagesSent
		data.WantIters = sc.Iterations
		data.WantHalted = sc.HaltedAfter
	}
	var b strings.Builder
	if err := subgraphTestTemplate.Execute(&b, &data); err != nil {
		return "", err
	}
	return b.String(), nil
}
