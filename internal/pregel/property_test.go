package pregel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graft/internal/dfs"
)

// randomGraphFrom builds a deterministic pseudo-random undirected
// graph from compact quick-generated inputs.
func randomGraphFrom(seed int64, n int) *Graph {
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), nil)
	}
	edges := n * 2
	for i := 0; i < edges; i++ {
		a := VertexID(rng.Intn(n))
		b := VertexID(rng.Intn(n))
		if a == b {
			continue
		}
		_ = g.AddUndirectedEdge(a, b, nil)
	}
	return g
}

// refComponents computes connected components by union-find, as the
// reference for the engine-executed CC.
func refComponents(g *Graph) map[VertexID]VertexID {
	parent := map[VertexID]VertexID{}
	var find func(VertexID) VertexID
	find = func(x VertexID) VertexID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range g.VertexIDs() {
		parent[id] = id
	}
	for _, id := range g.VertexIDs() {
		for _, e := range g.Vertex(id).Edges() {
			ra, rb := find(id), find(e.Target)
			if ra != rb {
				if ra < rb {
					parent[rb] = ra
				} else {
					parent[ra] = rb
				}
			}
		}
	}
	out := map[VertexID]VertexID{}
	for _, id := range g.VertexIDs() {
		out[id] = find(id)
	}
	return out
}

// Property: engine-executed connected components equals union-find on
// arbitrary random graphs, for any worker count.
func TestPropertyCCMatchesUnionFind(t *testing.T) {
	f := func(seed int64, nRaw, wRaw uint8) bool {
		n := int(nRaw%64) + 2
		workers := int(wRaw%7) + 1
		g := randomGraphFrom(seed, n)
		want := refComponents(g)
		run := g.Clone()
		if _, err := NewJob(run, ccCompute, Config{NumWorkers: workers}).Run(); err != nil {
			return false
		}
		// Compare as partitions: two vertices share an engine label iff
		// they share a union-find root.
		labels := map[VertexID]VertexID{}
		for _, id := range run.VertexIDs() {
			labels[id] = VertexID(run.Vertex(id).Value().(*LongValue).Get())
		}
		for _, a := range run.VertexIDs() {
			for _, b := range run.VertexIDs() {
				if (want[a] == want[b]) != (labels[a] == labels[b]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-superstep message counts sum to the job total, and
// superstep numbers are contiguous from zero.
func TestPropertyStatsConsistent(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		g := randomGraphFrom(seed, int(nRaw%80)+2)
		stats, err := NewJob(g, ccCompute, Config{NumWorkers: 3}).Run()
		if err != nil {
			return false
		}
		var sum int64
		for i, ss := range stats.PerSuperstep {
			if ss.Superstep != i {
				return false
			}
			sum += ss.MessagesSent
		}
		return sum == stats.TotalMessages && len(stats.PerSuperstep) == stats.Supersteps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a checkpoint-and-recover run produces identical vertex
// values to an uninterrupted run, for random graphs and random failure
// supersteps.
func TestPropertyRecoveryEquivalence(t *testing.T) {
	f := func(seed int64, nRaw, failRaw uint8) bool {
		n := int(nRaw%40) + 4
		plain := randomGraphFrom(seed, n)
		if _, err := NewJob(plain, ccCompute, Config{NumWorkers: 2}).Run(); err != nil {
			return false
		}

		recovered := randomGraphFrom(seed, n)
		failAt := int(failRaw % 4)
		failed := false
		_, err := NewJob(recovered, ccCompute, Config{
			NumWorkers:      2,
			CheckpointEvery: 2,
			CheckpointFS:    dfs.NewMemFS(),
			FailureAt: func(s int) bool {
				if s == failAt && !failed {
					failed = true
					return true
				}
				return false
			},
		}).Run()
		if err != nil {
			return false
		}
		for _, id := range plain.VertexIDs() {
			a := plain.Vertex(id).Value().(*LongValue).Get()
			b := recovered.Vertex(id).Value().(*LongValue).Get()
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSelfLoopAndSelfMessage exercises messages to oneself and
// self-loop edges.
func TestSelfLoopAndSelfMessage(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, NewLong(0))
	g.Vertex(1).AddEdge(Edge{Target: 1}) // self-loop
	var got int64 = -1
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		switch ctx.Superstep() {
		case 0:
			ctx.SendMessage(1, NewLong(7))
			ctx.SendMessageToAllEdges(v, NewLong(11)) // along the self-loop
		case 1:
			var sum int64
			for _, m := range msgs {
				sum += m.(*LongValue).Get()
			}
			got = sum
		}
		v.VoteToHalt()
		return nil
	})
	if _, err := NewJob(g, comp, Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	if got != 18 {
		t.Errorf("self-delivered sum = %d, want 18", got)
	}
}

// TestManyWorkersFewVertices: more workers than vertices must work.
func TestManyWorkersFewVertices(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, nil)
	g.AddVertex(2, nil)
	if err := g.AddUndirectedEdge(1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob(g, ccCompute, Config{NumWorkers: 16}).Run(); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(2).Value().(*LongValue).Get(); got != 1 {
		t.Errorf("label = %d", got)
	}
}
