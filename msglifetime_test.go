package graft

import (
	"fmt"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// keepFirstMessage is a vertex program that keeps a message as its
// value, the way the message lifetime rule (Computation.Compute) allows:
// through CloneValue. At superstep 0 a vertex takes a small value from
// its ID; later it folds its inbox with the combiner's own reduction
// into a clone of msgs[0] and keeps that. It sends what it holds along
// every edge and votes to halt, so mail wakes it.
func keepFirstMessage(comb Combiner, long bool, steps int) *Algorithm {
	compute := func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 {
			if long {
				v.SetValue(pregel.NewLong(int64(v.ID()%97) - 40))
			} else {
				v.SetValue(pregel.NewDouble(float64(v.ID() % 13)))
			}
		} else {
			acc := pregel.CloneValue(msgs[0])
			for _, m := range msgs[1:] {
				acc = comb.Combine(v.ID(), acc, pregel.CloneValue(m))
			}
			v.SetValue(acc)
		}
		ctx.SendMessageToAllEdges(v, v.Value().Clone())
		v.VoteToHalt()
		return nil
	}
	return &Algorithm{Name: "keep-first-message", Compute: ComputeFunc(compute), Combiner: comb, MaxSupersteps: steps}
}

// TestKeptMessageMatchesReference: vertex mode delivers a scalar-combined
// cell in one box reused from vertex to vertex, so a program that keeps
// a clone of its message must end exactly where the reference
// interpreter, which never reuses a message, does. Doubles are small
// integers, so every sum is exact and the digests compare bit for bit.
func TestKeptMessageMatchesReference(t *testing.T) {
	combiners := []struct {
		name string
		comb Combiner
		long bool
	}{
		{"min-long", pregel.MinLongCombiner, true},
		{"max-long", pregel.MaxLongCombiner, true},
		{"sum-long", pregel.SumLongCombiner, true},
		{"sum-double", pregel.SumDoubleCombiner, false},
		{"min-double", pregel.MinDoubleCombiner, false},
	}
	build := func() *Graph { return graphgen.WebGraph(800, 4, 7) }
	for _, c := range combiners {
		ref := &refBSP{alg: keepFirstMessage(c.comb, c.long, 6)}
		ref.run(t, build())
		want := NewGraph()
		for id, v := range ref.verts {
			want.AddVertex(id, v.Value())
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				g := build()
				_, err := RunAlgorithm(g, keepFirstMessage(c.comb, c.long, 6), RunOptions{Engine: EngineConfig{NumWorkers: workers}})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := g.ValuesDigest(), want.ValuesDigest(); got != want {
					t.Fatalf("ValuesDigest = %s, reference %s", got, want)
				}
			})
		}
	}
}

// TestSharedInputValue: PageRank and SSSP update their value in place
// from the second superstep that writes it on, which is only safe
// because the first write is a fresh box. A graph whose vertices all
// share one input value object must end as a graph with distinct ones.
func TestSharedInputValue(t *testing.T) {
	algs := map[string]func() *Algorithm{
		"pagerank": func() *Algorithm { return algorithms.NewPageRank(6, algorithms.DefaultDamping) },
		"sssp":     func() *Algorithm { return algorithms.NewSSSP(0) },
	}
	for name, alg := range algs {
		t.Run(name, func(t *testing.T) {
			digest := func(shared bool) string {
				g := graphgen.ChainedCommunities(1000, 10, 6, 4)
				one := pregel.NewDouble(0.5)
				g.Each(func(v *Vertex) {
					if shared {
						v.SetValue(one)
					} else {
						v.SetValue(pregel.NewDouble(0.5))
					}
				})
				if _, err := RunAlgorithm(g, alg(), RunOptions{Engine: EngineConfig{NumWorkers: 3}}); err != nil {
					t.Fatal(err)
				}
				return g.ValuesDigest()
			}
			if shared, distinct := digest(true), digest(false); shared != distinct {
				t.Fatalf("shared input value: digest %s, distinct values: %s", shared, distinct)
			}
		})
	}
}
