package graft

// The acceptance test for the resilient storage path: a multi-superstep
// job runs with seeded faults injected into its checkpoint file system,
// its trace file system AND a datanode of the simulated DFS underneath
// both, plus one worker crash. The job must complete with at least one
// checkpoint recovery and at least one absorbed retry, produce exactly
// the vertex values of a fault-free run, leave a trace that replays
// cleanly — and do all of it identically on every run of the same seed.

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// chaosWorkload is one row of the chaos acceptance test: connected
// components, and the Figure 8 algorithms on their kinds of graph —
// colouring on a bipartite graph, random walks on a web graph, and
// matching, whose vertex removals a restart must restore.
type chaosWorkload struct {
	name  string
	graph func(seed int64) *pregel.Graph
	alg   func(seed int64) *algorithms.Algorithm
	// faultP is the write-fault probability of faults.ChaosPlan.
	faultP float64
}

var chaosWorkloads = []chaosWorkload{
	{"CC", func(seed int64) *pregel.Graph { return graphgen.SocialGraph(800, 4, seed) },
		func(int64) *algorithms.Algorithm { return algorithms.NewConnectedComponents() }, 0.5},
	{"GC-bp", func(int64) *pregel.Graph { return graphgen.RegularBipartite(600, 3) },
		algorithms.NewGraphColoring, 0.3},
	{"RW", func(seed int64) *pregel.Graph { return graphgen.WebGraph(600, 12, seed+2) },
		func(seed int64) *algorithms.Algorithm { return algorithms.NewRandomWalk(seed, 10) }, 0.3},
	{"MWM", func(seed int64) *pregel.Graph { return graphgen.SocialGraph(600, 6, seed+9) },
		func(int64) *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(400) }, 0.3},
}

type chaosOutcome struct {
	stats    *pregel.Stats
	values   map[pregel.VertexID]pregel.Value
	store    *trace.Store
	jobID    string
	captures int64
}

// runChaosJob executes wl with the full fault stack enabled.
func runChaosJob(t *testing.T, wl chaosWorkload, seed int64) *chaosOutcome {
	t.Helper()
	const crashAt = 3

	g := wl.graph(seed)
	cluster := dfs.NewCluster(4, 2, 8<<10)
	noSleep := func(time.Duration) {}
	ckptFS := faults.NewRetryFS(faults.NewFaultFS(cluster, faults.ChaosPlan(seed, wl.faultP)), seed)
	ckptFS.Sleep = noSleep
	traceFS := faults.NewRetryFS(faults.NewFaultFS(cluster, faults.ChaosPlan(seed+1, wl.faultP)), seed+1)
	traceFS.Sleep = noSleep
	store := trace.NewStore(traceFS, "chaos")

	jobID := "chaos-" + wl.name
	crashed := false
	res, err := RunAlgorithm(g, wl.alg(seed), RunOptions{
		JobID: jobID,
		Store: store,
		Debug: &DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3, 4, 5}, CaptureExceptions: true},
		Engine: pregel.Config{
			NumWorkers:       4,
			CheckpointEvery:  2,
			CheckpointFS:     ckptFS,
			CheckpointPrefix: "ckpt/",
			FailureAt: func(superstep int) bool {
				if superstep == crashAt && !crashed {
					crashed = true
					cluster.Kill(0) // the crash takes a datanode down with it
					return true
				}
				if crashed && superstep > crashAt && !cluster.Node(0).Alive() {
					cluster.Revive(0)
				}
				return false
			},
		},
	})
	if err != nil {
		t.Fatalf("chaos job failed: %v", err)
	}
	if !crashed {
		t.Fatal("worker crash was never injected")
	}

	values := map[pregel.VertexID]pregel.Value{}
	g.Each(func(v *pregel.Vertex) { values[v.ID()] = pregel.CloneValue(v.Value()) })
	return &chaosOutcome{stats: res.Stats, values: values, store: store, jobID: jobID, captures: res.Captures}
}

func TestChaosJobSurvivesAndMatchesFaultFreeRun(t *testing.T) {
	const seed = 42
	for _, wl := range chaosWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			// Fault-free reference on healthy storage.
			ref := wl.graph(seed)
			if _, err := RunAlgorithm(ref, wl.alg(seed), RunOptions{Engine: pregel.Config{NumWorkers: 4}}); err != nil {
				t.Fatal(err)
			}

			out := runChaosJob(t, wl, seed)
			t.Logf("supersteps=%d recoveries=%d %s captures=%d",
				out.stats.Supersteps, out.stats.Recoveries, out.stats.Faults, out.captures)

			// The job was actually abused and actually recovered.
			if out.stats.Recoveries < 1 {
				t.Errorf("recoveries = %d, want >= 1", out.stats.Recoveries)
			}
			if out.stats.Faults.Injected < 1 {
				t.Errorf("injected faults = %d, want >= 1", out.stats.Faults.Injected)
			}
			if out.stats.Faults.Retries < 1 {
				t.Errorf("retries = %d, want >= 1 (stats: %s)", out.stats.Faults.Retries, out.stats.Faults)
			}
			// ChaosPlan's faults fit in the retry budget: every trace record
			// landed.
			if out.stats.Faults.DroppedRecords != 0 {
				t.Errorf("dropped records = %d, want 0", out.stats.Faults.DroppedRecords)
			}

			// Its output is byte-for-byte the fault-free answer.
			diffs := 0
			ref.Each(func(v *pregel.Vertex) {
				got, ok := out.values[v.ID()]
				if !ok || !pregel.ValuesEqual(v.Value(), got) {
					diffs++
				}
			})
			if diffs != 0 {
				t.Errorf("%d vertex values differ from the fault-free run", diffs)
			}

			// The trace survived the storage abuse and replays cleanly: every
			// captured compute call re-executes to exactly the captured outcome.
			db, err := out.store.OpenReader(out.jobID)
			if err != nil {
				t.Fatalf("trace unreadable after chaos: %v", err)
			}
			if db.TotalCaptures() == 0 {
				t.Fatal("no captures in the chaos trace")
			}
			comp := wl.alg(seed).Compute
			replayed := 0
			for _, superstep := range db.Supersteps() {
				for _, c := range db.CapturesAt(superstep) {
					o, err := repro.Replay(db, superstep, c.ID, comp)
					if err != nil {
						t.Fatalf("replay superstep %d vertex %d: %v", superstep, c.ID, err)
					}
					if fid := repro.Fidelity(c, o); len(fid) != 0 {
						t.Errorf("replay superstep %d vertex %d diverged: %v", superstep, c.ID, fid)
					}
					replayed++
				}
			}
			if replayed == 0 {
				t.Fatal("nothing replayed")
			}
			res, done, err := out.store.ReadResult(out.jobID)
			if err != nil || !done {
				t.Fatalf("job result missing after chaos: done=%v err=%v", done, err)
			}
			if res.Captures != out.captures {
				t.Errorf("result records %d captures, session counted %d", res.Captures, out.captures)
			}
		})
	}
}

func TestChaosJobIsDeterministic(t *testing.T) {
	const seed = 42
	a := runChaosJob(t, chaosWorkloads[0], seed)
	b := runChaosJob(t, chaosWorkloads[0], seed)

	if a.stats.Faults != b.stats.Faults {
		t.Errorf("fault stats differ across identical runs:\n%s\nvs\n%s", a.stats.Faults, b.stats.Faults)
	}
	if a.stats.Recoveries != b.stats.Recoveries || a.stats.Supersteps != b.stats.Supersteps {
		t.Errorf("run shape differs: %d/%d recoveries, %d/%d supersteps",
			a.stats.Recoveries, b.stats.Recoveries, a.stats.Supersteps, b.stats.Supersteps)
	}
	if len(a.values) != len(b.values) {
		t.Fatalf("vertex counts differ: %d vs %d", len(a.values), len(b.values))
	}
	for id, av := range a.values {
		if !pregel.ValuesEqual(av, b.values[id]) {
			t.Fatalf("vertex %d differs across identical runs: %s vs %s",
				id, pregel.ValueString(av), pregel.ValueString(b.values[id]))
		}
	}
	if a.captures != b.captures {
		t.Errorf("captures differ: %d vs %d", a.captures, b.captures)
	}
}

// segmentFaults routes segment files through the FaultFS and everything
// else (the manifest, job.done, index parts) to the healthy file system
// under it, so a job attaches cleanly and then cannot write a capture.
type segmentFaults struct{ *faults.FaultFS }

func (f segmentFaults) Create(path string) (io.WriteCloser, error) {
	if strings.HasSuffix(path, ".seg") {
		return f.FaultFS.Create(path)
	}
	return f.FaultFS.FS.Create(path)
}

// TestTraceWriteFailureSurfaces: a job whose every trace segment fails
// to write still runs to the end — Graft never aborts the job it
// debugs — but RunAlgorithm reports it, with the stats, instead of
// returning a clean result over a trace that is not there. `graft run`
// exits 1 on exactly this error (see cli_test.go).
func TestTraceWriteFailureSurfaces(t *testing.T) {
	fs := segmentFaults{faults.NewFaultFS(dfs.NewMemFS(), faults.Plan{P: map[faults.Op]float64{faults.OpCreate: 1}})}
	res, err := RunAlgorithm(graphgen.SocialGraph(200, 4, 7), algorithms.NewConnectedComponents(), RunOptions{
		JobID:  "unwritable",
		Store:  trace.NewStore(fs, "traces"),
		Debug:  &DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3}},
		Engine: pregel.Config{NumWorkers: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "trace write") || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want a trace write error wrapping the injected fault", err)
	}
	if res == nil || res.Stats == nil || res.Stats.Supersteps == 0 || res.Stats.Reason != pregel.ReasonConverged {
		t.Fatalf("result = %+v, want the finished job's stats beside the error", res)
	}
	if res.Captures == 0 {
		t.Error("no captures counted: the job was debugged, only the writes failed")
	}
}
