// Package repro implements Graft's reproduce stage (paper §3.3): it
// rebuilds the exact context of one captured vertex.compute,
// ComputeSubgraph or master.compute call and re-executes it.
//
// Two forms are provided for every capture kind. Replay,
// ReplaySubgraph and ReplayMaster re-execute programmatically and diff
// the outcome against the capture, and CheckTrace runs them over a
// whole trace — the engine behind tests and the GUI's replay check.
// GenerateVertexTest (a vertex's, or in a subgraph-mode trace its
// component's) and GenerateMasterTest emit a standalone Go test file (the paper generates JUnit + Mockito via
// Velocity; here it is a Go test over the mock contexts via
// text/template) that a user copies into their tree and steps through
// with a line-by-line debugger.
package repro

import (
	"encoding/hex"
	"fmt"
	"sort"

	"graft/internal/pregel"
	"graft/internal/trace"
)

// MockBase is what the three mock contexts share: the captured global
// data and aggregator values of one superstep, and the Aggregate calls
// the replayed compute made. It holds the mock objects of the paper's
// Figure 6 that do not depend on the kind of computation.
type MockBase struct {
	// SuperstepN, NumVertices, NumEdges and Worker are the default
	// global data exposed to the computation.
	SuperstepN  int
	NumVertices int64
	NumEdges    int64
	Worker      int
	// Agg holds the aggregator values broadcast in the captured
	// superstep.
	Agg map[string]pregel.Value

	// Aggregated records the replayed compute's Aggregate calls.
	Aggregated []trace.AggSet
}

// newMockBase rebuilds a superstep's global data, cloning the
// aggregator values so the replay cannot alter the capture's.
func newMockBase(meta *trace.SuperstepMeta, worker int) MockBase {
	agg := make(map[string]pregel.Value, len(meta.Aggregated))
	for name, v := range meta.Aggregated {
		agg[name] = pregel.CloneValue(v)
	}
	return MockBase{
		SuperstepN:  meta.Superstep,
		NumVertices: meta.NumVertices,
		NumEdges:    meta.NumEdges,
		Worker:      worker,
		Agg:         agg,
	}
}

// Superstep implements the contexts' Superstep.
func (m *MockBase) Superstep() int { return m.SuperstepN }

// TotalNumVertices implements the contexts' TotalNumVertices.
func (m *MockBase) TotalNumVertices() int64 { return m.NumVertices }

// TotalNumEdges implements the contexts' TotalNumEdges.
func (m *MockBase) TotalNumEdges() int64 { return m.NumEdges }

// WorkerID implements the contexts' WorkerID.
func (m *MockBase) WorkerID() int { return m.Worker }

// GetAggregated implements the contexts' GetAggregated.
func (m *MockBase) GetAggregated(name string) pregel.Value {
	v, ok := m.Agg[name]
	if !ok {
		panic(fmt.Sprintf("repro: GetAggregated(%q): aggregator not in captured context", name))
	}
	return v
}

// Aggregate implements the contexts' Aggregate, recording the call.
func (m *MockBase) Aggregate(name string, val pregel.Value) {
	m.Aggregated = append(m.Aggregated, trace.AggSet{Name: name, Value: pregel.CloneValue(val)})
}

// MockContext implements pregel.Context from captured data and records
// what the replayed vertex compute sends and removes.
type MockContext struct {
	MockBase
	Sent     []trace.OutMsg
	Removals []pregel.VertexID
}

// NewMockContext builds a MockContext from a captured superstep's
// metadata.
func NewMockContext(meta *trace.SuperstepMeta, worker int) *MockContext {
	return &MockContext{MockBase: newMockBase(meta, worker)}
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

// SubgraphSent is one recorded SendMessage of a replayed subgraph
// compute, with the sending member attributed.
type SubgraphSent struct {
	From  pregel.VertexID
	To    pregel.VertexID
	Value pregel.Value
}

// MockSubgraphContext implements pregel.SubgraphContext from captured
// data and records what the replayed ComputeSubgraph sends, the
// internal iterations it reports and its halt vote.
type MockSubgraphContext struct {
	MockBase
	Sent       []SubgraphSent
	Iterations int64
	HaltedNow  bool
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

// MockMasterContext implements pregel.MasterContext from a master
// capture and records the replayed master's SetAggregated calls and
// halt.
type MockMasterContext struct {
	MockBase
	Sets      []trace.AggSet
	HaltedNow bool
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
