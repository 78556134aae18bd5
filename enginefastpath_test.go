package graft

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// refStep is what the reference interpreter records per superstep.
type refStep struct{ processed, active, sent int64 }

// refBSP is the slow path the engine's frontier scan is checked
// against: a single-threaded BSP interpreter over plain maps that
// scans every vertex every superstep — no partitions, no combiner, no
// bitmaps, no skipping. It shares nothing with internal/pregel beyond
// the Computation/Context contract (vertex-mutation requests are not
// modelled; none of the checked algorithms issue them).
type refBSP struct {
	alg     *algorithms.Algorithm
	verts   map[VertexID]*Vertex
	aggs    map[string]pregel.Aggregator
	step    int
	bcast   map[string]Value // aggregator values visible this superstep
	partial map[string]Value // contributions made this superstep
	next    map[VertexID][]Value
	sent    int64
	halted  bool // master called HaltComputation
}

func (r *refBSP) Superstep() int                     { return r.step }
func (r *refBSP) TotalNumVertices() int64            { return int64(len(r.verts)) }
func (r *refBSP) WorkerID() int                      { return 0 }
func (r *refBSP) GetAggregated(name string) Value    { return r.bcast[name] }
func (r *refBSP) SetAggregated(name string, v Value) { r.bcast[name] = v }
func (r *refBSP) HaltComputation()                   { r.halted = true }
func (r *refBSP) RemoveVertexRequest(VertexID)       { panic("refBSP: mutations not modelled") }

func (r *refBSP) TotalNumEdges() (n int64) {
	for _, v := range r.verts {
		n += int64(v.NumEdges())
	}
	return n
}

func (r *refBSP) AggregatedNames() (names []string) {
	for _, s := range r.alg.Aggregators {
		names = append(names, s.Name)
	}
	return names
}

func (r *refBSP) Aggregate(name string, v Value) {
	cur, ok := r.partial[name]
	if !ok {
		cur = r.aggs[name].CreateInitial()
	}
	r.partial[name] = r.aggs[name].Aggregate(cur, v)
}

func (r *refBSP) SendMessage(to VertexID, msg Value) {
	r.next[to] = append(r.next[to], msg)
	r.sent++
}

func (r *refBSP) SendMessageToAllEdges(v *Vertex, msg Value) {
	for _, e := range v.Edges() {
		r.SendMessage(e.Target, msg.Clone())
	}
}

// run interprets the algorithm over g to termination and returns one
// refStep per superstep executed; r.step ends as the superstep count
// and r.verts holds the final vertices.
func (r *refBSP) run(t *testing.T, g *Graph) (steps []refStep) {
	r.verts, r.aggs, r.bcast = map[VertexID]*Vertex{}, map[string]pregel.Aggregator{}, map[string]Value{}
	for _, id := range g.VertexIDs() {
		r.verts[id] = g.Vertex(id)
	}
	for _, s := range r.alg.Aggregators {
		r.aggs[s.Name] = s.Agg
		r.bcast[s.Name] = s.Agg.CreateInitial()
	}
	inbox := map[VertexID][]Value{}
	for ; r.alg.MaxSupersteps == 0 || r.step < r.alg.MaxSupersteps; r.step++ {
		if r.alg.Master != nil {
			if err := r.alg.Master.Compute(r); err != nil {
				t.Fatal(err)
			}
			if r.halted {
				return steps
			}
		}
		ids := make([]VertexID, 0, len(r.verts))
		for id := range r.verts {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var st refStep
		r.partial, r.next, r.sent = map[string]Value{}, map[VertexID][]Value{}, 0
		for _, id := range ids {
			v, msgs := r.verts[id], inbox[id]
			if v.Halted() {
				if len(msgs) == 0 {
					continue
				}
				// Mail wakes a halted vertex. Only the engine can clear a
				// halt vote, so the reference swaps in a fresh vertex with
				// the same value and edges.
				w := pregel.NewDetachedVertex(id, v.Value())
				for _, e := range v.Edges() {
					w.AddEdge(e)
				}
				v, r.verts[id] = w, w
			}
			st.processed++
			if err := r.alg.Compute.Compute(r, v, msgs); err != nil {
				t.Fatal(err)
			}
			if !v.Halted() {
				st.active++
			}
		}
		st.sent = r.sent
		steps = append(steps, st)
		for _, s := range r.alg.Aggregators {
			acc := s.Agg.CreateInitial()
			if s.Persistent {
				acc = r.bcast[s.Name]
			}
			if p, ok := r.partial[s.Name]; ok {
				acc = s.Agg.Aggregate(acc, p)
			}
			r.bcast[s.Name] = acc
		}
		for id := range r.next {
			if r.verts[id] == nil {
				delete(r.next, id)
			}
		}
		inbox = r.next
		if st.active == 0 && len(inbox) == 0 {
			r.step++
			return steps
		}
	}
	return steps
}

// requireMatchesReference runs alg over build() once on the engine and
// once on the reference interpreter and requires identical final
// values (doubles to sameValue's tolerance), superstep count, message
// totals and per-superstep VerticesProcessed/ActiveAtEnd/MessagesSent.
func requireMatchesReference(t *testing.T, build func() *Graph, alg func() *algorithms.Algorithm, cfg EngineConfig, crashAt int) *Stats {
	t.Helper()
	return requireMatchesReferenceBy(t, sameValue, build, alg, cfg, crashAt)
}

// requireMatchesReferenceBy is requireMatchesReference with the caller's
// notion of equal final values.
func requireMatchesReferenceBy(t *testing.T, same func(a, b Value) bool, build func() *Graph, alg func() *algorithms.Algorithm, cfg EngineConfig, crashAt int) *Stats {
	t.Helper()
	if crashAt >= 0 {
		cfg.CheckpointEvery = 2
		cfg.CheckpointFS = NewMemFS()
		cfg.FailureAt = FailAt(crashAt)
	}
	got := build()
	res, err := RunAlgorithm(got, alg(), RunOptions{Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats
	ref := &refBSP{alg: alg()}
	steps := ref.run(t, build())

	if stats.Supersteps != ref.step {
		t.Fatalf("supersteps: engine=%d reference=%d", stats.Supersteps, ref.step)
	}
	if len(stats.PerSuperstep) != len(steps) {
		t.Fatalf("per-superstep rows: engine=%d reference=%d", len(stats.PerSuperstep), len(steps))
	}
	var refTotal int64
	for i, st := range steps {
		ss := stats.PerSuperstep[i]
		if ss.VerticesProcessed != st.processed || ss.ActiveAtEnd != st.active || ss.MessagesSent != st.sent {
			t.Fatalf("superstep %d: engine processed/active/sent = %d/%d/%d, reference %d/%d/%d",
				i, ss.VerticesProcessed, ss.ActiveAtEnd, ss.MessagesSent, st.processed, st.active, st.sent)
		}
		refTotal += st.sent
	}
	if stats.TotalMessages != refTotal {
		t.Errorf("TotalMessages: engine=%d reference=%d", stats.TotalMessages, refTotal)
	}
	if got.NumVertices() != int64(len(ref.verts)) {
		t.Fatalf("vertices: engine=%d reference=%d", got.NumVertices(), len(ref.verts))
	}
	for id, v := range ref.verts {
		if a, b := got.Vertex(id).Value(), v.Value(); !same(a, b) {
			t.Fatalf("vertex %d: engine=%s reference=%s", id, ValueString(a), ValueString(b))
		}
	}
	return stats
}

// sameValue compares final vertex values. Doubles get a relative
// tolerance: the engine sums through a combiner and per-worker
// aggregator partials, the reference left to right, and floating-point
// addition is not associative.
func sameValue(a, b Value) bool {
	da, okA := a.(*pregel.DoubleValue)
	db, okB := b.(*pregel.DoubleValue)
	if okA && okB {
		x, y := da.Get(), db.Get()
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return ValueString(a) == ValueString(b)
}

// TestPartitionSkipDigestEquivalence checks the frontier-driven
// superstep — bitmap scan, slot-addressed inboxes, no worker launched
// for an empty frontier — against the reference full scan. SSSP is the
// stressor: its frontier sweeps the graph in waves, so most supersteps
// leave most slots (and whole partitions) halted; PageRank is the
// opposite, every vertex live every superstep; graph colouring adds a
// master and four aggregators; the crash cases restart from a
// checkpoint mid-run.
func TestPartitionSkipDigestEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func() *Graph
	}{
		{
			"sssp",
			func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func() *Graph { return graphgen.WebGraph(240, 5, 11) },
		},
		{
			"cc",
			algorithms.NewConnectedComponents,
			func() *Graph { return graphgen.SocialGraph(240, 5, 3) },
		},
		{
			"pagerank",
			func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0) },
			func() *Graph { return graphgen.WebGraph(240, 5, 7) },
		},
		{
			"gc",
			func() *algorithms.Algorithm { return algorithms.NewGraphColoring(5) },
			func() *Graph { return graphgen.RegularBipartite(120, 3) },
		},
	}
	for _, tc := range cases {
		for _, crashAt := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%s/crash=%d", tc.name, crashAt), func(t *testing.T) {
				requireMatchesReference(t, tc.build, tc.alg, EngineConfig{NumWorkers: 4}, crashAt)
			})
		}
	}
}

// TestPartitionSkipWithMutationsAndRebalance runs over a skewed broom:
// the hub's partitions
// go quiet after the first supersteps while the path keeps one
// partition busy, so the skip must idle and wake partitions as the
// frontier moves, and the run must still match the reference step for
// step. (Placement is fixed at load; the name is kept so the test's
// history stays comparable.)
func TestPartitionSkipWithMutationsAndRebalance(t *testing.T) {
	cfg := EngineConfig{NumWorkers: 4}
	requireMatchesReference(t, func() *Graph { return broomGraph(300, 40) },
		algorithms.NewConnectedComponents, cfg, -1)
}
