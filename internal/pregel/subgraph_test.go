package pregel

import (
	"errors"
	"testing"
)

func subgraphTestPartition(t *testing.T, edges map[VertexID][]VertexID, ids ...VertexID) *partition {
	t.Helper()
	p := &partition{}
	for _, id := range ids {
		p.add(NewDetachedVertex(id, NewLong(int64(id))))
	}
	for from, tos := range edges {
		s, _ := p.index.lookup(from)
		for _, to := range tos {
			p.slots[s].edges = append(p.slots[s].edges, Edge{Target: to})
		}
	}
	return p
}

func memberIDs(sg *Subgraph) []VertexID {
	ids := make([]VertexID, 0, sg.NumMembers())
	for _, v := range sg.Members() {
		ids = append(ids, v.ID())
	}
	return ids
}

func TestDiscoverSubgraphsComponents(t *testing.T) {
	// Partition holds {1,2,3} linked, {5,6} linked, {9} isolated.
	// Edges to 100/200 leave the partition and must not merge anything.
	p := subgraphTestPartition(t, map[VertexID][]VertexID{
		1: {2, 100},
		3: {2},
		5: {6},
		6: {200},
	}, 1, 2, 3, 5, 6, 9)
	p.ensureSubgraphs()
	if len(p.subs) != 3 {
		t.Fatalf("got %d subgraphs, want 3", len(p.subs))
	}
	want := [][]VertexID{{1, 2, 3}, {5, 6}, {9}}
	for i, sg := range p.subs {
		got := memberIDs(sg)
		if len(got) != len(want[i]) {
			t.Fatalf("subgraph %d members = %v, want %v", i, got, want[i])
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("subgraph %d members = %v, want %v", i, got, want[i])
			}
		}
		if sg.ID() != want[i][0] {
			t.Errorf("subgraph %d ID = %d, want min member %d", i, sg.ID(), want[i][0])
		}
		for _, id := range want[i] {
			if !sg.Has(id) {
				t.Errorf("subgraph %d missing member %d", i, id)
			}
		}
	}
}

func TestSubgraphsDirtyAfterMutation(t *testing.T) {
	p := subgraphTestPartition(t, map[VertexID][]VertexID{1: {2}}, 1, 2, 3)
	p.ensureSubgraphs()
	if len(p.subs) != 2 {
		t.Fatalf("got %d subgraphs, want 2", len(p.subs))
	}
	// Bridging 2-3 through the vertex API must flag a recompute.
	p.slots[1].AddEdge(Edge{Target: 3}) // vertex 2
	if !p.subsDirty {
		t.Fatal("AddEdge did not mark subgraphs dirty")
	}
	p.ensureSubgraphs()
	if len(p.subs) != 1 || p.subs[0].NumMembers() != 3 {
		t.Fatalf("after bridge: got %d subgraphs (first has %d members), want 1 of 3",
			len(p.subs), p.subs[0].NumMembers())
	}
	// Cutting the bridge splits it again.
	p.slots[1].RemoveEdges(3)
	if !p.subsDirty {
		t.Fatal("RemoveEdges did not mark subgraphs dirty")
	}
	p.ensureSubgraphs()
	if len(p.subs) != 2 {
		t.Fatalf("after cut: got %d subgraphs, want 2", len(p.subs))
	}
}

func TestNewDetachedSubgraph(t *testing.T) {
	a := NewDetachedVertex(4, NewLong(4))
	b := NewDetachedVertex(2, NewLong(2))
	sg := NewDetachedSubgraph([]*Vertex{a, b}, map[VertexID][]Value{
		2: {NewLong(7)},
	})
	if sg.ID() != 2 {
		t.Errorf("ID = %d, want 2 (min member)", sg.ID())
	}
	if got := memberIDs(sg); got[0] != 2 || got[1] != 4 {
		t.Errorf("members = %v, want sorted [2 4]", got)
	}
	msgs := sg.MessagesTo(2)
	if len(msgs) != 1 || msgs[0].(*LongValue).Get() != 7 {
		t.Errorf("MessagesTo(2) = %v, want [7]", msgs)
	}
	if len(sg.MessagesTo(4)) != 0 {
		t.Errorf("MessagesTo(4) = %v, want empty", sg.MessagesTo(4))
	}
	if i, ok := sg.Index(4); !ok || i != 1 {
		t.Errorf("Index(4) = (%d, %v), want (1, true)", i, ok)
	}
	if _, ok := sg.Index(99); ok {
		t.Error("Index(99) found a non-member")
	}
}

func TestSubgraphModeConfigValidation(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NewLong(1))
	// A subgraph job built without a subgraph computation has no program.
	if _, err := NewSubgraphJob(g, nil, Config{NumWorkers: 1}).Run(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("subgraph job without a program: err = %v, want ErrInvalidConfig", err)
	}
}

// subgraphMinLabel is WCC-style min propagation in subgraph mode: each
// component takes the least value among its members and their mail,
// and sends it across its boundary edges when it changed.
var subgraphMinLabel = SubgraphFunc(func(ctx SubgraphContext, sg *Subgraph) error {
	min := int64(sg.ID())
	for _, v := range sg.Members() {
		if x := v.Value().(*LongValue).Get(); x < min {
			min = x
		}
	}
	changed := ctx.Superstep() == 0
	for i := range sg.Members() {
		for _, m := range sg.Messages(i) {
			if x := m.(*LongValue).Get(); x < min {
				min = x
				changed = true
			}
		}
	}
	for _, v := range sg.Members() {
		if v.Value().(*LongValue).Get() != min {
			v.SetValue(NewLong(min))
			changed = true
		}
	}
	if changed {
		for _, v := range sg.Members() {
			for _, e := range v.Edges() {
				if !sg.Has(e.Target) {
					ctx.SendMessage(v.ID(), e.Target, NewLong(min))
				}
			}
		}
	}
	ctx.AddIterations(1)
	ctx.VoteToHalt()
	return nil
})

func TestSubgraphEngineSmoke(t *testing.T) {
	// Chain 0-1-2-3-4-5 split over workers: subgraph WCC-style min
	// propagation must converge with every value = 0.
	g := NewGraph()
	for i := 0; i < 6; i++ {
		g.AddVertex(VertexID(i), NewLong(int64(i)))
	}
	for i := 0; i < 5; i++ {
		if err := g.AddUndirectedEdge(VertexID(i), VertexID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := NewSubgraphJob(g, subgraphMinLabel, Config{NumWorkers: 3}).Run()
	if err != nil {
		t.Fatal(err)
	}
	g.Each(func(v *Vertex) {
		if got := v.Value().(*LongValue).Get(); got != 0 {
			t.Errorf("vertex %d = %d, want 0", v.ID(), got)
		}
	})
	var subs int64
	for _, ss := range stats.PerSuperstep {
		subs += ss.SubgraphsComputed
	}
	if subs == 0 {
		t.Error("no SubgraphsComputed telemetry recorded")
	}
}
