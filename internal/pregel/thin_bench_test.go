package pregel_test

import (
	"runtime"
	"testing"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// BenchmarkThinSuperstep is the companion of BenchmarkMessagePlane for
// the other end of the spectrum: SSSP along a chain of 200 communities
// runs ≈700 supersteps in which a few dozen of the 20,000 vertices are
// live, so what it prices is a superstep's fixed cost — finding the
// frontier, the barrier, the coordinator — not message throughput. It
// lives in the external test package because the generator, the
// algorithm and graft.RunAlgorithm import pregel. Run with
//
//	go test ./internal/pregel -run '^$' -bench BenchmarkThinSuperstep
func BenchmarkThinSuperstep(b *testing.B) {
	base := graphgen.ChainedCommunities(20_000, 200, 8, 1)
	alg := algorithms.NewSSSP(0)
	var supersteps, mallocs, bytes uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := base.Clone()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := graft.RunAlgorithm(g, alg, graft.RunOptions{Engine: pregel.Config{NumWorkers: 2}})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		supersteps += uint64(res.Stats.Supersteps)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
	b.ReportMetric(float64(mallocs)/float64(supersteps), "allocs/superstep")
	b.ReportMetric(float64(bytes)/float64(supersteps), "B/superstep")
}
