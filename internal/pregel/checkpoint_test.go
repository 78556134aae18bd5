package pregel

import (
	"errors"
	"testing"

	"graft/internal/dfs"
)

// failOnce is a one-shot FailureAt hook crashing the job at barrier at
// (faults.FailAt, which this package's tests cannot import).
func failOnce(at int) func(int) bool {
	fired := false
	return func(s int) bool {
		if s == at && !fired {
			fired = true
			return true
		}
		return false
	}
}

// ccResult runs connected components over a fresh two-component graph
// with the given extra config and returns the final labels.
func ccResult(t *testing.T, cfg Config) map[VertexID]int64 {
	t.Helper()
	g := twoComponentGraph(t)
	if _, err := NewJob(g, ccCompute, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	out := map[VertexID]int64{}
	g.Each(func(v *Vertex) { out[v.ID()] = v.Value().(*LongValue).Get() })
	return out
}

func TestCheckpointRecoveryProducesSameResult(t *testing.T) {
	want := ccResult(t, Config{NumWorkers: 3})

	fs := dfs.NewMemFS()
	failed := false
	got := ccResult(t, Config{
		NumWorkers:      3,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(superstep int) bool {
			if superstep == 1 && !failed {
				failed = true
				return true
			}
			return false
		},
	})
	if !failed {
		t.Fatal("failure was never injected")
	}
	for id, label := range want {
		if got[id] != label {
			t.Errorf("vertex %d: label %d after recovery, want %d", id, got[id], label)
		}
	}
}

func TestRecoveryCountsInStats(t *testing.T) {
	fs := dfs.NewMemFS()
	failed := 0
	g := twoComponentGraph(t)
	stats, err := NewJob(g, ccCompute, Config{
		NumWorkers:      2,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(superstep int) bool {
			if superstep == 0 && failed < 2 {
				failed++
				return true
			}
			return false
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", stats.Recoveries)
	}
}

func TestRecoveryWithoutCheckpointFails(t *testing.T) {
	g := twoComponentGraph(t)
	_, err := NewJob(g, ccCompute, Config{
		FailureAt: func(superstep int) bool { return superstep == 0 },
	}).Run()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestTooManyRecoveries(t *testing.T) {
	fs := dfs.NewMemFS()
	g := twoComponentGraph(t)
	_, err := NewJob(g, ccCompute, Config{
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt:       func(superstep int) bool { return true }, // crash every superstep
	}).Run()
	if !errors.Is(err, ErrTooManyRecoveries) {
		t.Fatalf("err = %v, want ErrTooManyRecoveries", err)
	}
}

func TestCheckpointPersistsAggregators(t *testing.T) {
	// A persistent aggregator accumulates across supersteps; recovery
	// from a checkpoint must not double-count contributions from the
	// re-executed superstep.
	fs := dfs.NewMemFS()
	var finalSum int64 = -1
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() < 3 {
			ctx.Aggregate("sum", NewLong(1))
			return nil
		}
		if v.ID() == 0 {
			finalSum = ctx.GetAggregated("sum").(*LongValue).Get()
		}
		v.VoteToHalt()
		return nil
	})
	failed := false
	g := pathGraph(t, 2)
	job := NewJob(g, comp, Config{
		NumWorkers:      2,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(superstep int) bool {
			if superstep == 2 && !failed {
				failed = true
				return true
			}
			return false
		},
	})
	job.RegisterAggregator("sum", LongSumAggregator{}, true)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	// 2 vertices x 3 supersteps = 6, regardless of the replayed superstep.
	if finalSum != 6 {
		t.Errorf("persistent sum after recovery = %d, want 6", finalSum)
	}
}

func TestCheckpointFilesWritten(t *testing.T) {
	fs := dfs.NewMemFS()
	g := pathGraph(t, 5)
	_, err := NewJob(g, ccCompute, Config{
		CheckpointEvery:  2,
		CheckpointFS:     fs,
		CheckpointPrefix: "job42/",
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("job42/checkpoint_")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Errorf("expected at least 2 checkpoints, got %v", names)
	}
}

func TestCheckpointRoundTripWithMessagesInFlight(t *testing.T) {
	// Craft an engine mid-run, checkpoint, restore into a second
	// engine, and compare partition contents.
	g := pathGraph(t, 7)
	job := NewJob(g, ccCompute, Config{NumWorkers: 2, CheckpointFS: dfs.NewMemFS(), CheckpointEvery: 1})
	job.RegisterAggregator("a", LongSumAggregator{}, true)
	en := newEngine(job)
	en.broadcast["a"] = NewLong(42)
	en.superstep = 3
	// Seed some undelivered messages.
	en.cur.replayDeliver(en.parts[en.partitionFor(0)], 0, NewLong(9))
	en.cur.replayDeliver(en.parts[en.partitionFor(1)], 1, NewLong(8))
	en.cur.replayDeliver(en.parts[en.partitionFor(1)], 1, NewLong(7))
	if err := en.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}

	job2 := NewJob(pathGraph(t, 7), ccCompute, job.cfg)
	job2.RegisterAggregator("a", LongSumAggregator{}, true)
	en2 := newEngine(job2)
	en2.superstep = 3 // recovery looks for checkpoints <= current superstep
	if err := en2.consumeRecoveryBudget(); err != nil {
		t.Fatal(err)
	}
	if err := en2.restoreNewestIntact(); err != nil {
		t.Fatal(err)
	}
	if en2.superstep != 3 {
		t.Errorf("restored superstep = %d, want 3", en2.superstep)
	}
	if got := en2.broadcast["a"].(*LongValue).Get(); got != 42 {
		t.Errorf("restored aggregator = %d, want 42", got)
	}
	if got := en2.cur.total(); got != 3 {
		t.Errorf("restored pending messages = %d, want 3", got)
	}
	owner := en2.parts[en2.partitionFor(1)]
	slot, _ := owner.index.lookup(1)
	if msgs := en2.cur.take(owner.idx, slot); len(msgs) != 2 {
		t.Errorf("restored inbox of vertex 1 = %d messages, want 2", len(msgs))
	}
	nv, ne := en2.totals()
	if nv != 7 || ne != 12 {
		t.Errorf("restored totals = %d vertices %d edges, want 7/12", nv, ne)
	}
}

func TestRestoreRejectsWrongPartitionCount(t *testing.T) {
	fs := dfs.NewMemFS()
	g := pathGraph(t, 3)
	job := NewJob(g, ccCompute, Config{NumWorkers: 2, CheckpointFS: fs, CheckpointEvery: 1})
	en := newEngine(job)
	if err := en.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	job2 := NewJob(pathGraph(t, 3), ccCompute, Config{NumWorkers: 5, CheckpointFS: fs, CheckpointEvery: 1})
	en2 := newEngine(job2)
	if err := en2.consumeRecoveryBudget(); err != nil {
		t.Fatal(err)
	}
	if err := en2.restoreNewestIntact(); err == nil {
		t.Fatal("expected partition-count mismatch error")
	}
}

// TestDroppedMessagesCountOnceAfterRecovery: the drops of a superstep
// re-executed after a checkpoint restart count once, like its sends.
func TestDroppedMessagesCountOnceAfterRecovery(t *testing.T) {
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		ctx.SendMessage(100, NewLong(1)) // no vertex 100
		return nil
	})
	for _, crash := range []bool{false, true} {
		g := NewGraph()
		for id := VertexID(0); id < 4; id++ {
			g.AddVertex(id, NewLong(0))
		}
		cfg := Config{NumWorkers: 2, MaxSupersteps: 6}
		if crash {
			cfg.CheckpointEvery, cfg.CheckpointFS, cfg.FailureAt = 2, dfs.NewMemFS(), failOnce(3)
		}
		stats, err := NewJob(g, comp, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if crash && stats.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
		}
		if stats.MessagesDropped != 24 || stats.Totals().MessagesDropped != 24 {
			t.Errorf("crash=%v: dropped = %d (totals %d), want 24: 4 vertices × 6 supersteps",
				crash, stats.MessagesDropped, stats.Totals().MessagesDropped)
		}
	}
}
