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
	mode      pregel.ComputeMode
	part      PartitionerMode
	crash     string // "none", "checkpoint" (whole-job restart), "log" (confined replay) or "log-clean" (logging, no failure)
	rebalance string // "none", "skew" or "edgecut"
}

func (c scalarPathConfig) String() string {
	return fmt.Sprintf("%v/%v/crash=%s/rebalance=%s", c.mode, c.part, c.crash, c.rebalance)
}

// scalarPathRun runs one fully captured job and returns its trace, its
// stats and the file systems its checkpoints and outbox logs went to.
func scalarPathRun(t *testing.T, g *Graph, alg *algorithms.Algorithm, workers int, c scalarPathConfig) (trace.View, *Stats, *dfs.MemFS, *dfs.MemFS) {
	t.Helper()
	ckptFS, logFS := dfs.NewMemFS(), dfs.NewMemFS()
	engine := EngineConfig{NumWorkers: workers, ComputeMode: c.mode, Partitioner: c.part}
	if c.crash != "none" {
		engine.CheckpointEvery = 2
		engine.CheckpointFS = ckptFS
	}
	switch c.crash {
	case "checkpoint":
		fired := false
		engine.FailureAt = func(s int) bool {
			if s == 3 && !fired {
				fired = true
				return true
			}
			return false
		}
	case "log":
		engine.Recovery = RecoveryLog
		engine.MsgLogFS = logFS
		engine.PartitionFailureAt = FailPartitionAt(3, 1)
	case "log-clean": // the logging set-up with no failure, for the format test
		engine.Recovery = RecoveryLog
		engine.MsgLogFS = logFS
	}
	switch c.rebalance {
	case "skew":
		engine.RebalanceSkew = 1.3
		engine.RebalanceMaxMoves = 16
	case "edgecut":
		engine.RebalanceObjective = ObjectiveEdgeCut
	}
	store := NewStore(NewMemFS(), "traces")
	res, err := RunAlgorithm(g, alg, RunOptions{
		JobID:  "job",
		Engine: engine,
		Debug:  &DebugConfig{CaptureAllActive: true, MaxCaptures: -1},
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	view, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	return view, res.Stats, ckptFS, logFS
}

// migrations lists who moved where, without the timing-derived skew.
func migrations(stats *Stats) [][4]int64 {
	var out [][4]int64
	for _, ss := range stats.PerSuperstep {
		for _, m := range ss.Migrations {
			out = append(out, [4]int64{int64(ss.Superstep), int64(m.From), int64(m.To), m.Vertices})
		}
	}
	return out
}

// requireSameRun compares everything a job's message path can influence:
// the canonical trace, the final values, and the per-superstep message
// accounting.
func requireSameRun(t *testing.T, label string, aView, bView trace.View, a, b *Stats, traffic bool) {
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
		if traffic && !reflect.DeepEqual(x.Traffic, y.Traffic) {
			t.Errorf("%s: superstep %d traffic %v vs %v", label, x.Superstep, x.Traffic, y.Traffic)
		}
	}
}

// TestScalarPathEquivalenceProperty pins the unboxed message path to
// the boxed one. Each combiner algorithm runs once with its standard
// combiner (rows) and once with the same reduction wrapped in a
// CombineFunc (boxes); min is exact, so everything observable must be
// bit-identical: across compute modes, placements, both kinds of
// recovery and both rebalancers.
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
	moved := map[string]int64{}
	recovered := map[string]int{}
	for _, a := range algs {
		for _, mode := range []pregel.ComputeMode{pregel.ModeVertex, pregel.ModeSubgraph} {
			if mode == pregel.ModeSubgraph && !a.alg().SupportsSubgraph() {
				continue
			}
			for _, part := range []PartitionerMode{PartitionHash, PartitionLocality} {
				for _, crash := range []string{"none", "checkpoint", "log"} {
					for _, rebalance := range []string{"none", "skew", "edgecut"} {
						c := scalarPathConfig{mode, part, crash, rebalance}
						t.Run(a.name+"/"+c.String(), func(t *testing.T) {
							rowGraph, boxGraph := build(), build()
							rowView, rowStats, _, _ := scalarPathRun(t, rowGraph, a.alg(), 4, c)
							boxView, boxStats, _, _ := scalarPathRun(t, boxGraph, boxedTwin(a.alg()), 4, c)
							if rowGraph.ValuesDigest() != boxGraph.ValuesDigest() {
								t.Fatal("final vertex values differ")
							}
							moved[rebalance] += rowStats.VerticesMigrated
							recovered[crash] += rowStats.Recoveries
							// The skew rebalancer reads wall-clock compute skew, so
							// two runs may migrate differently. Placement never
							// shows in a vertex-mode trace, but it does shape the
							// traffic matrix and subgraph-mode trajectories.
							samePlacement := reflect.DeepEqual(migrations(rowStats), migrations(boxStats))
							if mode == pregel.ModeSubgraph && !samePlacement {
								return
							}
							requireSameRun(t, "row vs boxed", rowView, boxView, rowStats, boxStats, samePlacement)
						})
					}
				}
			}
		}
	}
	if moved["skew"] == 0 || moved["edgecut"] == 0 {
		t.Errorf("rebalancers never migrated (skew %d, edgecut %d vertices): the matrix did not exercise them",
			moved["skew"], moved["edgecut"])
	}
	if recovered["checkpoint"] == 0 || recovered["log"] == 0 {
		t.Errorf("recoveries by kind = %v: the matrix did not exercise them", recovered)
	}
}

// TestScalarPathPageRank covers the float sum, whose result depends on
// the order messages meet. Rows and boxes meet in the same order — same
// sender-side index, same batch boundaries, same merge — so the two
// paths agree to the bit at any worker count, and the row path repeats
// itself run to run.
func TestScalarPathPageRank(t *testing.T) {
	build := func() *Graph { return graphgen.WebGraph(300, 5, 9) }
	alg := func() *algorithms.Algorithm { return algorithms.NewPageRank(8, 0.85) }
	c := scalarPathConfig{crash: "none", rebalance: "none"}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rowGraph, boxGraph, againGraph := build(), build(), build()
			rowView, rowStats, _, _ := scalarPathRun(t, rowGraph, alg(), workers, c)
			boxView, boxStats, _, _ := scalarPathRun(t, boxGraph, boxedTwin(alg()), workers, c)
			againView, againStats, _, _ := scalarPathRun(t, againGraph, alg(), workers, c)
			if rowGraph.ValuesDigest() != boxGraph.ValuesDigest() || rowGraph.ValuesDigest() != againGraph.ValuesDigest() {
				t.Fatal("final ranks differ")
			}
			requireSameRun(t, "row vs boxed", rowView, boxView, rowStats, boxStats, true)
			requireSameRun(t, "row vs row again", rowView, againView, rowStats, againStats, true)
		})
	}
}

// TestScalarPathFormatStability checks that what reaches disk does not
// depend on how messages travelled: every checkpoint and every
// outbox-log segment of a CC job is byte-identical between the row run
// and its boxed twin.
func TestScalarPathFormatStability(t *testing.T) {
	c := scalarPathConfig{crash: "log-clean", rebalance: "none"}
	build := func() *Graph { return graphgen.ChainedCommunities(240, 8, 4, 7) }
	_, _, rowCkpt, rowLog := scalarPathRun(t, build(), algorithms.NewConnectedComponents(), 4, c)
	_, _, boxCkpt, boxLog := scalarPathRun(t, build(), boxedTwin(algorithms.NewConnectedComponents()), 4, c)
	for _, fs := range []struct {
		what     string
		row, box *dfs.MemFS
	}{{"checkpoint", rowCkpt, boxCkpt}, {"outbox log", rowLog, boxLog}} {
		rowFiles, _ := fs.row.List("")
		boxFiles, _ := fs.box.List("")
		if len(rowFiles) == 0 || !reflect.DeepEqual(rowFiles, boxFiles) {
			t.Fatalf("%s files: row %v, boxed %v", fs.what, rowFiles, boxFiles)
		}
		for _, name := range rowFiles {
			rowBytes, rowErr := dfs.ReadFile(fs.row, name)
			boxBytes, boxErr := dfs.ReadFile(fs.box, name)
			if rowErr != nil || boxErr != nil {
				t.Fatalf("%s file %s: %v, %v", fs.what, name, rowErr, boxErr)
			}
			if !bytes.Equal(rowBytes, boxBytes) {
				t.Errorf("%s file %s differs between the row and the boxed run", fs.what, name)
			}
		}
	}
}
