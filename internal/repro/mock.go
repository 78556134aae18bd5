// Package repro implements Graft's reproduce stage (paper §3.3): it
// rebuilds the exact context of one captured vertex.compute (or
// master.compute) call and re-executes it.
//
// Two forms are provided. Replay re-executes programmatically and
// diffs the outcome against the capture — the engine behind tests and
// the GUI's replay check. GenerateVertexTest emits a standalone Go
// test file (the paper generates JUnit + Mockito via Velocity; here it
// is a Go test over MockContext via text/template) that a user copies
// into their tree and steps through with a line-by-line debugger.
package repro

import (
	"encoding/hex"
	"fmt"
	"sort"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// MockContext implements pregel.Context from captured data: the mock
// objects of the paper's Figure 6. It records everything the replayed
// compute does.
type MockContext struct {
	// SuperstepN, NumVertices, NumEdges and Worker are the default
	// global data exposed to the vertex.
	SuperstepN  int
	NumVertices int64
	NumEdges    int64
	Worker      int
	// Agg holds the aggregator values broadcast in the captured
	// superstep.
	Agg map[string]pregel.Value

	// Recorded effects of the replayed compute call.
	Sent       []trace.OutMsg
	Aggregated []trace.AggSet
	Removals   []pregel.VertexID
}

// NewMockContext builds a MockContext from a captured superstep's
// metadata.
func NewMockContext(meta *trace.SuperstepMeta, worker int) *MockContext {
	agg := make(map[string]pregel.Value, len(meta.Aggregated))
	for name, v := range meta.Aggregated {
		agg[name] = pregel.CloneValue(v)
	}
	return &MockContext{
		SuperstepN:  meta.Superstep,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		Worker:      worker,
		Agg:         agg,
	}
}

// Superstep implements pregel.Context.
func (m *MockContext) Superstep() int { return m.SuperstepN }

// TotalNumVertices implements pregel.Context.
func (m *MockContext) TotalNumVertices() int64 { return m.NumVertices }

// TotalNumEdges implements pregel.Context.
func (m *MockContext) TotalNumEdges() int64 { return m.NumEdges }

// WorkerID implements pregel.Context.
func (m *MockContext) WorkerID() int { return m.Worker }

// GetAggregated implements pregel.Context.
func (m *MockContext) GetAggregated(name string) pregel.Value {
	v, ok := m.Agg[name]
	if !ok {
		panic(fmt.Sprintf("repro: GetAggregated(%q): aggregator not in captured context", name))
	}
	return v
}

// Aggregate implements pregel.Context, recording the call.
func (m *MockContext) Aggregate(name string, val pregel.Value) {
	m.Aggregated = append(m.Aggregated, trace.AggSet{Name: name, Value: pregel.CloneValue(val)})
}

// SendMessage implements pregel.Context, recording the message.
func (m *MockContext) SendMessage(to pregel.VertexID, msg pregel.Value) {
	m.Sent = append(m.Sent, trace.OutMsg{To: to, Value: msg})
}

// SendMessageToAllEdges implements pregel.Context.
func (m *MockContext) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	for i, e := range v.Edges() {
		mm := msg
		if i > 0 {
			mm = msg.Clone()
		}
		m.SendMessage(e.Target, mm)
	}
}

// RemoveVertexRequest implements pregel.Context.
func (m *MockContext) RemoveVertexRequest(id pregel.VertexID) {
	m.Removals = append(m.Removals, id)
}

// MockMasterContext implements pregel.MasterContext from a master
// capture.
type MockMasterContext struct {
	SuperstepN  int
	NumVertices int64
	NumEdges    int64
	Agg         map[string]pregel.Value

	Sets      []trace.AggSet
	HaltedNow bool
}

// NewMockMasterContext rebuilds the master's pre-compute environment.
func NewMockMasterContext(c *trace.MasterCapture) *MockMasterContext {
	agg := make(map[string]pregel.Value, len(c.AggregatedBefore))
	for name, v := range c.AggregatedBefore {
		agg[name] = pregel.CloneValue(v)
	}
	return &MockMasterContext{
		SuperstepN:  c.Superstep,
		NumVertices: c.NumVertices,
		NumEdges:    c.NumEdges,
		Agg:         agg,
	}
}

// Superstep implements pregel.MasterContext.
func (m *MockMasterContext) Superstep() int { return m.SuperstepN }

// TotalNumVertices implements pregel.MasterContext.
func (m *MockMasterContext) TotalNumVertices() int64 { return m.NumVertices }

// TotalNumEdges implements pregel.MasterContext.
func (m *MockMasterContext) TotalNumEdges() int64 { return m.NumEdges }

// GetAggregated implements pregel.MasterContext.
func (m *MockMasterContext) GetAggregated(name string) pregel.Value {
	v, ok := m.Agg[name]
	if !ok {
		panic(fmt.Sprintf("repro: GetAggregated(%q): aggregator not in captured context", name))
	}
	return v
}

// SetAggregated implements pregel.MasterContext.
func (m *MockMasterContext) SetAggregated(name string, val pregel.Value) {
	m.Sets = append(m.Sets, trace.AggSet{Name: name, Value: pregel.CloneValue(val)})
	m.Agg[name] = val
}

// AggregatedNames implements pregel.MasterContext.
func (m *MockMasterContext) AggregatedNames() []string {
	names := make([]string, 0, len(m.Agg))
	for name := range m.Agg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// HaltComputation implements pregel.MasterContext.
func (m *MockMasterContext) HaltComputation() { m.HaltedNow = true }

// RebuildVertex reconstructs the captured vertex: ID, pre-compute
// value and edge list (paper Figure 6 lines 13-23).
func RebuildVertex(c *trace.VertexCapture) *pregel.Vertex {
	v := pregel.NewDetachedVertex(c.ID, pregel.CloneValue(c.ValueBefore))
	for _, e := range c.Edges {
		v.AddEdge(pregel.Edge{Target: e.Target, Value: pregel.CloneValue(e.Value)})
	}
	return v
}

// RebuildIncoming reconstructs the captured inbox (Figure 6 lines
// 24-28).
func RebuildIncoming(c *trace.VertexCapture) []pregel.Value {
	msgs := make([]pregel.Value, len(c.Incoming))
	for i, m := range c.Incoming {
		msgs[i] = pregel.CloneValue(m)
	}
	return msgs
}

// MustDecodeValue decodes a hex-encoded typed value; generated test
// files use it for composite value types that have no literal
// constructor.
func MustDecodeValue(hexData string) pregel.Value {
	raw, err := hex.DecodeString(hexData)
	if err != nil {
		panic(fmt.Sprintf("repro: bad embedded value %q: %v", hexData, err))
	}
	v, err := pregel.UnmarshalValue(raw)
	if err != nil {
		panic(fmt.Sprintf("repro: bad embedded value %q: %v", hexData, err))
	}
	return v
}
