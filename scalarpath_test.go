package graft

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// boxedTwin returns alg with its standard combiner hidden inside a
// CombineFunc: the same reduction, but of a type the engine does not
// recognise, so its messages stay boxed instead of travelling as rows.
func boxedTwin(alg *algorithms.Algorithm) *algorithms.Algorithm {
	twin := *alg
	std := alg.Combiner
	twin.Combiner = pregel.CombineFunc(func(to VertexID, a, b Value) Value { return std.Combine(to, a, b) })
	return &twin
}

// scalarPathConfig is one point of the equivalence matrix.
type scalarPathConfig struct {
	mode  string // "vertex" or "subgraph"
	part  PartitionerMode
	crash string // "none", "checkpoint" (crash and restart) or "checkpoint-only" (checkpointing, no failure)
}

// String names a cell. Placement is fixed at load, so every cell is
// rebalance=none; the suffix keeps the names comparable with earlier
// runs of the matrix.
func (c scalarPathConfig) String() string {
	return fmt.Sprintf("%s/%v/crash=%s/rebalance=none", c.mode, c.part, c.crash)
}

// scalarPathRun runs one fully captured job and returns its trace, its
// stats and the file system its checkpoints went to.
func scalarPathRun(t *testing.T, g *Graph, alg *algorithms.Algorithm, workers int, c scalarPathConfig) (*trace.Reader, *Stats, *dfs.MemFS) {
	t.Helper()
	ckptFS := dfs.NewMemFS()
	engine := EngineConfig{NumWorkers: workers, Partitioner: c.part}
	if c.crash != "none" {
		engine.CheckpointEvery = 2
		engine.CheckpointFS = ckptFS
	}
	if c.crash == "checkpoint" {
		engine.FailureAt = FailAt(3)
	}
	store := NewStore(NewMemFS(), "traces")
	opts := RunOptions{
		JobID:  "job",
		Engine: engine,
		Debug:  &DebugConfig{CaptureAllActive: true, MaxCaptures: -1},
		Store:  store,
	}
	if c.mode == "subgraph" {
		opts.Subgraph = alg.Subgraph
	}
	res, err := RunAlgorithm(g, alg, opts)
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	return view, res.Stats, ckptFS
}

// requireSameRun compares everything a job's message path can influence:
// the canonical trace, the final values, and the per-superstep message
// accounting and traffic matrix.
func requireSameRun(t *testing.T, label string, aView, bView *trace.Reader, a, b *Stats) {
	t.Helper()
	requireNoDiff(t, label, aView, bView)
	if trace.Digest(aView) != trace.Digest(bView) {
		t.Errorf("%s: trace digests differ", label)
	}
	if a.Supersteps != b.Supersteps || len(a.PerSuperstep) != len(b.PerSuperstep) {
		t.Fatalf("%s: supersteps %d vs %d (%d vs %d rows)", label,
			a.Supersteps, b.Supersteps, len(a.PerSuperstep), len(b.PerSuperstep))
	}
	for i := range a.PerSuperstep {
		x, y := a.PerSuperstep[i], b.PerSuperstep[i]
		if x.MessagesSent != y.MessagesSent || x.MessagesCombined != y.MessagesCombined {
			t.Errorf("%s: superstep %d sent/combined %d/%d vs %d/%d", label, x.Superstep,
				x.MessagesSent, x.MessagesCombined, y.MessagesSent, y.MessagesCombined)
		}
		if !reflect.DeepEqual(x.Traffic, y.Traffic) {
			t.Errorf("%s: superstep %d traffic %v vs %v", label, x.Superstep, x.Traffic, y.Traffic)
		}
	}
}

// TestScalarPathEquivalenceProperty pins the unboxed message path to
// the boxed one. Each combiner algorithm runs once with its standard
// combiner (rows) and once with the same reduction wrapped in a
// CombineFunc (boxes); min is exact, so everything observable must be
// bit-identical: across compute modes, placements and a crash with its
// checkpoint restart.
func TestScalarPathEquivalenceProperty(t *testing.T) {
	algs := []struct {
		name string
		alg  func() *algorithms.Algorithm
	}{
		{"cc", algorithms.NewConnectedComponents},
		{"bfs", func() *algorithms.Algorithm { return algorithms.NewBFS(0) }},
		{"sssp", func() *algorithms.Algorithm { return algorithms.NewSSSP(0) }},
	}
	build := func() *Graph { return graphgen.ChainedCommunities(240, 8, 4, 7) }
	recovered := 0
	for _, a := range algs {
		for _, mode := range []string{"vertex", "subgraph"} {
			if mode == "subgraph" && !a.alg().SupportsSubgraph() {
				continue
			}
			for _, part := range []PartitionerMode{PartitionHash, PartitionLocality} {
				for _, crash := range []string{"none", "checkpoint"} {
					c := scalarPathConfig{mode, part, crash}
					t.Run(a.name+"/"+c.String(), func(t *testing.T) {
						rowGraph, boxGraph := build(), build()
						rowView, rowStats, _ := scalarPathRun(t, rowGraph, a.alg(), 4, c)
						boxView, boxStats, _ := scalarPathRun(t, boxGraph, boxedTwin(a.alg()), 4, c)
						if rowGraph.ValuesDigest() != boxGraph.ValuesDigest() {
							t.Fatal("final vertex values differ")
						}
						recovered += rowStats.Recoveries
						requireSameRun(t, "row vs boxed", rowView, boxView, rowStats, boxStats)
					})
				}
			}
		}
	}
	if recovered == 0 {
		t.Error("no cell recovered: the matrix did not exercise a restart")
	}
}

// TestScalarPathPageRank covers the float sum, whose result depends on
// the order messages meet. Unboxed and boxed messages meet in the same
// order — each sender's in send order, then senders in worker order —
// so the two paths agree to the bit at any worker count, and the
// unboxed path repeats itself run to run.
func TestScalarPathPageRank(t *testing.T) {
	build := func() *Graph { return graphgen.WebGraph(300, 5, 9) }
	alg := func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) }
	c := scalarPathConfig{crash: "none"}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rowGraph, boxGraph, againGraph := build(), build(), build()
			rowView, rowStats, _ := scalarPathRun(t, rowGraph, alg(), workers, c)
			boxView, boxStats, _ := scalarPathRun(t, boxGraph, boxedTwin(alg()), workers, c)
			againView, againStats, _ := scalarPathRun(t, againGraph, alg(), workers, c)
			if rowGraph.ValuesDigest() != boxGraph.ValuesDigest() || rowGraph.ValuesDigest() != againGraph.ValuesDigest() {
				t.Fatal("final ranks differ")
			}
			requireSameRun(t, "row vs boxed", rowView, boxView, rowStats, boxStats)
			requireSameRun(t, "row vs row again", rowView, againView, rowStats, againStats)
		})
	}
}

// TestScalarPathFormatStability checks that what reaches disk does not
// depend on how messages travelled: every checkpoint of a CC job is
// byte-identical between the row run and its boxed twin.
func TestScalarPathFormatStability(t *testing.T) {
	c := scalarPathConfig{crash: "checkpoint-only"}
	build := func() *Graph { return graphgen.ChainedCommunities(240, 8, 4, 7) }
	_, _, row := scalarPathRun(t, build(), algorithms.NewConnectedComponents(), 4, c)
	_, _, box := scalarPathRun(t, build(), boxedTwin(algorithms.NewConnectedComponents()), 4, c)
	rowFiles, _ := row.List("")
	boxFiles, _ := box.List("")
	if len(rowFiles) == 0 || !reflect.DeepEqual(rowFiles, boxFiles) {
		t.Fatalf("checkpoint files: row %v, boxed %v", rowFiles, boxFiles)
	}
	for _, name := range rowFiles {
		rowBytes, rowErr := dfs.ReadFile(row, name)
		boxBytes, boxErr := dfs.ReadFile(box, name)
		if rowErr != nil || boxErr != nil {
			t.Fatalf("checkpoint file %s: %v, %v", name, rowErr, boxErr)
		}
		if !bytes.Equal(rowBytes, boxBytes) {
			t.Errorf("checkpoint file %s differs between the row and the boxed run", name)
		}
	}
}
