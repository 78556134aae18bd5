package pregel_test

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// TestEdgeCutMatchesInputCount checks Stats.EdgeCut against a count
// over the graph the job leaves: every edge of a vertex still in the
// computation whose endpoints are placed on different workers. Both of
// finish's paths are covered: PageRank ends with every partition's edge
// slot column current, so the cut is read from it; SSSP sends per edge
// and never builds one; k-core builds columns and then stales them by
// removing vertices and edges. Each runs under hash and locality
// placement, on 1 and 3 workers, with and without edges to IDs that are
// not in the graph.
func TestEdgeCutMatchesInputCount(t *testing.T) {
	algs := []struct {
		name string
		alg  func() *algorithms.Algorithm
		// current is how many partitions end with a current column, as a
		// function of the worker count.
		current func(workers int) int
		live    func(v *pregel.Vertex) bool
	}{
		{"pagerank", func() *algorithms.Algorithm { return algorithms.NewPageRank(4, algorithms.DefaultDamping) },
			func(w int) int { return w }, func(*pregel.Vertex) bool { return true }},
		{"sssp", func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func(int) int { return 0 }, func(*pregel.Vertex) bool { return true }},
		{"kcore", func() *algorithms.Algorithm { return algorithms.NewKCore(5) },
			func(int) int { return 0 }, func(v *pregel.Vertex) bool { return v.Value().(*pregel.BoolValue).Get() }},
	}
	for _, a := range algs {
		for _, mode := range []pregel.PartitionerMode{pregel.PartitionHash, pregel.PartitionLocality} {
			for _, workers := range []int{1, 3} {
				for _, missing := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/missing=%v", a.name, mode, workers, missing)
					t.Run(name, func(t *testing.T) {
						g := graphgen.ChainedCommunities(1500, 15, 8, 2)
						if missing {
							for id := pregel.VertexID(0); id < 1500; id += 7 {
								g.Vertex(id).AddEdge(pregel.Edge{Target: 1<<40 + id})
							}
						}
						place := pregel.Placement(g, mode, workers)
						alg := a.alg()
						cfg := pregel.Config{NumWorkers: workers, Partitioner: mode}
						alg.ApplyDefaults(&cfg)
						job := pregel.NewJob(g, alg.Compute, cfg)
						for _, s := range alg.Aggregators {
							job.RegisterAggregator(s.Name, s.Agg, s.Persistent)
						}
						stats, current, err := pregel.RunCountingCurrentColumns(job)
						if err != nil {
							t.Fatal(err)
						}
						if want := a.current(workers); current != want {
							t.Fatalf("%d partitions ended with a current edge slot column, want %d", current, want)
						}
						var want, live int64
						g.Each(func(v *pregel.Vertex) {
							if !a.live(v) {
								return
							}
							live++
							for _, e := range v.Edges() {
								if place(e.Target) != place(v.ID()) {
									want++
								}
							}
						})
						if stats.EdgeCut != want {
							t.Fatalf("EdgeCut = %d, want %d", stats.EdgeCut, want)
						}
						if workers > 1 && want == 0 || live == 0 || a.name == "kcore" && live == g.NumVertices() {
							t.Fatalf("degenerate case: cut %d over %d live of %d vertices", want, live, g.NumVertices())
						}
					})
				}
			}
		}
	}
}
