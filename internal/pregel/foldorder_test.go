package pregel_test

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// TestFoldOrderAtScale is the equivalence cell above one lane batch:
// PageRank over a 20,000-vertex web graph on two workers sends far more
// than msgFlushBatch messages from each worker to each partition. The
// float sum depends on the order messages meet, so the standard
// combiner must fold exactly as its CombineFunc twin does — each
// sender's messages in send order, then senders in worker order — and
// neither may depend on the lane batch size.
func TestFoldOrderAtScale(t *testing.T) {
	base := graphgen.WebGraph(20000, 8, 42)
	alg := algorithms.NewPageRank(10, algorithms.DefaultDamping)
	std := alg.Combiner
	twin := pregel.CombineFunc(func(to pregel.VertexID, a, b pregel.Value) pregel.Value { return std.Combine(to, a, b) })
	run := func(combiner pregel.Combiner, batch int) (string, *pregel.Stats) {
		g := base.Clone()
		cfg := pregel.Config{NumWorkers: 2, Combiner: combiner}
		alg.ApplyDefaults(&cfg)
		job := pregel.NewJob(g, alg.Compute, cfg)
		for _, a := range alg.Aggregators {
			job.RegisterAggregator(a.Name, a.Agg, a.Persistent)
		}
		stats, err := pregel.RunWithFlushBatch(job, batch)
		if err != nil {
			t.Fatal(err)
		}
		return g.ValuesDigest(), stats
	}
	want, stats := run(std, pregel.MsgFlushBatch)
	perLane := stats.PerSuperstep[1].Traffic[0][1]
	if perLane <= pregel.MsgFlushBatch {
		t.Fatalf("worker 0 sent %d messages to partition 1 in a superstep; the cell does not fill a batch", perLane)
	}
	for _, combiner := range []pregel.Combiner{std, twin} {
		for _, batch := range []int{1, 3, pregel.MsgFlushBatch} {
			name := fmt.Sprintf("%T/batch=%d", combiner, batch)
			if got, _ := run(combiner, batch); got != want {
				t.Errorf("%s: PageRank values differ from the standard combiner's at msgFlushBatch", name)
			}
		}
	}
}
