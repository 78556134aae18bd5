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
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

type chaosOutcome struct {
	stats    *pregel.Stats
	values   map[pregel.VertexID]pregel.Value
	store    *trace.Store
	jobID    string
	captures int64
}

// runChaosJob executes connected components over a seeded social graph
// with the full fault stack enabled.
func runChaosJob(t *testing.T, seed int64) *chaosOutcome {
	t.Helper()
	const crashAt = 3

	g := graphgen.SocialGraph(800, 4, seed)
	alg := algorithms.NewConnectedComponents()

	cluster := dfs.NewCluster(4, 2, 8<<10)
	plan := func(s int64) faults.Plan {
		return faults.Plan{
			Seed:         s,
			P:            map[faults.Op]float64{faults.OpWrite: 0.5, faults.OpCreate: 0.25, faults.OpClose: 0.25},
			MaxPerPathOp: 2,
			ShortWrites:  true,
		}
	}
	noSleep := func(time.Duration) {}
	ckptFS := faults.NewRetryFS(faults.NewFaultFS(cluster, plan(seed)), seed)
	ckptFS.Sleep = noSleep
	tracePrimary := faults.NewRetryFS(faults.NewFaultFS(cluster, plan(seed+1)), seed+1)
	tracePrimary.Sleep = noSleep
	traceFS := faults.NewFallbackFS(tracePrimary, dfs.NewMemFS())
	store := trace.NewStore(traceFS, "chaos")

	jobID := "chaos-acceptance"
	session, err := core.Attach(store, core.Options{
		JobID:      jobID,
		Algorithm:  alg.Name,
		NumWorkers: 4,
	}, g, core.DebugConfig{
		CaptureIDs:        []pregel.VertexID{1, 2, 3, 4, 5},
		CaptureExceptions: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	crashed := false
	job := pregel.NewJob(g, session.Instrument(alg.Compute), pregel.Config{
		NumWorkers:       4,
		Combiner:         alg.Combiner,
		Master:           session.InstrumentMaster(alg.Master),
		MaxSupersteps:    alg.MaxSupersteps,
		Listener:         session,
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
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatalf("chaos job failed: %v", err)
	}
	if !crashed {
		t.Fatal("worker crash was never injected")
	}

	values := map[pregel.VertexID]pregel.Value{}
	g.Each(func(v *pregel.Vertex) { values[v.ID()] = pregel.CloneValue(v.Value()) })
	return &chaosOutcome{stats: stats, values: values, store: store, jobID: jobID, captures: session.Captures()}
}

func TestChaosJobSurvivesAndMatchesFaultFreeRun(t *testing.T) {
	const seed = 42

	// Fault-free reference on healthy storage.
	ref := graphgen.SocialGraph(800, 4, seed)
	alg := algorithms.NewConnectedComponents()
	if _, err := pregel.NewJob(ref, alg.Compute, pregel.Config{
		NumWorkers: 4, Combiner: alg.Combiner, Master: alg.Master, MaxSupersteps: alg.MaxSupersteps,
	}).Run(); err != nil {
		t.Fatal(err)
	}

	out := runChaosJob(t, seed)

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
	replayed := 0
	for _, superstep := range db.Supersteps() {
		for _, c := range db.CapturesAt(superstep) {
			o, err := repro.Replay(db, superstep, c.ID, alg.Compute)
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
}

func TestChaosJobIsDeterministic(t *testing.T) {
	const seed = 42
	a := runChaosJob(t, seed)
	b := runChaosJob(t, seed)

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

// TestChaosTraceDegradesToSecondary drives the trace primary into
// persistent failure and verifies Graft records the degradation in the
// job result instead of aborting the job.
func TestChaosTraceDegradesToSecondary(t *testing.T) {
	g := graphgen.SocialGraph(200, 4, 7)
	alg := algorithms.NewConnectedComponents()

	// Primary fails every create, forever: everything must land on the
	// secondary.
	primary := faults.NewFaultFS(dfs.NewMemFS(), faults.Plan{P: map[faults.Op]float64{faults.OpCreate: 1}})
	fallback := faults.NewFallbackFS(primary, dfs.NewMemFS())
	store := trace.NewStore(fallback, "degraded")

	res, err := Run(g, alg.Compute, RunOptions{
		JobID:     "degraded-job",
		Algorithm: alg.Name,
		Store:     store,
		Debug:     &DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3}, CaptureExceptions: true},
		Engine: pregel.Config{
			NumWorkers: 2, Combiner: alg.Combiner, Master: alg.Master, MaxSupersteps: alg.MaxSupersteps,
		},
	})
	if err != nil {
		t.Fatalf("job should survive total primary failure: %v", err)
	}
	if res.Stats.Faults.Fallbacks == 0 {
		t.Error("no fallbacks counted despite a dead primary")
	}
	jr, done, err := store.ReadResult("degraded-job")
	if err != nil || !done {
		t.Fatalf("job result unreadable: done=%v err=%v", done, err)
	}
	if len(jr.StorageDegraded) == 0 {
		t.Error("job result does not record the degraded paths")
	}
	db, err := store.OpenReader("degraded-job")
	if err != nil {
		t.Fatalf("degraded trace unreadable: %v", err)
	}
	if db.TotalCaptures() == 0 {
		t.Error("degraded trace lost its captures")
	}
	for _, superstep := range db.Supersteps() {
		for _, c := range db.CapturesAt(superstep) {
			o, err := repro.Replay(db, superstep, c.ID, alg.Compute)
			if err != nil {
				t.Fatalf("replay from degraded trace: %v", err)
			}
			if fid := repro.Fidelity(c, o); len(fid) != 0 {
				t.Errorf("degraded-trace replay diverged at superstep %d vertex %d: %v", superstep, c.ID, fid)
			}
		}
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
