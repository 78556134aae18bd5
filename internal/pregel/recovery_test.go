package pregel

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"graft/internal/dfs"
)

// ccValues runs connected components over a path graph of n vertices
// with the given config and returns the final labels.
func ccValues(t *testing.T, n int, cfg Config) map[VertexID]int64 {
	t.Helper()
	g := pathGraph(t, n)
	if _, err := NewJob(g, ccCompute, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	out := map[VertexID]int64{}
	g.Each(func(v *Vertex) { out[v.ID()] = v.Value().(*LongValue).Get() })
	return out
}

func requireSameLabels(t *testing.T, want, got map[VertexID]int64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("vertex count %d after recovery, want %d", len(got), len(want))
	}
	for id, label := range want {
		if got[id] != label {
			t.Errorf("vertex %d: label %d after recovery, want %d", id, got[id], label)
		}
	}
}

// TestConfinedRecoveryMatchesFailureFree keeps the name it had when one
// partition could be recovered alone: a crash at barrier 3 restarts the
// job from checkpoint 2, and the restarted run must end on the
// failure-free labels.
func TestConfinedRecoveryMatchesFailureFree(t *testing.T) {
	want := ccValues(t, 12, Config{NumWorkers: 3})

	g := pathGraph(t, 12)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt:       failOnce(3),
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := map[VertexID]int64{}
	g.Each(func(v *Vertex) { got[v.ID()] = v.Value().(*LongValue).Get() })
	requireSameLabels(t, want, got)

	if len(stats.RecoveryEvents) != 1 {
		t.Fatalf("recovery events = %+v, want exactly one", stats.RecoveryEvents)
	}
	ev := stats.RecoveryEvents[0]
	if ev.Superstep != 3 || ev.CheckpointSuperstep != 2 || ev.SuperstepsReplayed != 2 {
		t.Errorf("recovery event = %+v, want failure at 3, rollback to 2, 2 supersteps re-executed", ev)
	}
}

// TestConfinedRecoveryNestedFailure crashes the job again while it
// re-executes after a first restart: both restarts roll back to
// checkpoint 0, and the job still ends on the failure-free labels.
func TestConfinedRecoveryNestedFailure(t *testing.T) {
	want := ccValues(t, 12, Config{NumWorkers: 3})

	// Stage 0: crash at the live barrier 3. Stage 1: the restart from
	// checkpoint 0 (CheckpointEvery 4) re-executes supersteps 0..3, so the
	// next consultation is the re-executed barrier 0 — crash there too.
	stage := 0
	g := pathGraph(t, 12)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 4,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt: func(s int) bool {
			switch {
			case stage == 0 && s == 3:
				stage = 1
				return true
			case stage == 1:
				stage = 2
				return true
			}
			return false
		},
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stage != 2 {
		t.Fatalf("injection stage = %d, want 2 (nested failure fired)", stage)
	}
	got := map[VertexID]int64{}
	g.Each(func(v *Vertex) { got[v.ID()] = v.Value().(*LongValue).Get() })
	requireSameLabels(t, want, got)

	if stats.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2 (original + nested)", stats.Recoveries)
	}
	if len(stats.RecoveryEvents) != 2 {
		t.Fatalf("recovery events = %+v, want one per restart", stats.RecoveryEvents)
	}
	for i, at := range []int{3, 0} {
		if ev := stats.RecoveryEvents[i]; ev.Superstep != at || ev.CheckpointSuperstep != 0 {
			t.Errorf("recovery %d = %+v, want failure at %d rolled back to 0", i, ev, at)
		}
	}
}

func TestRecoveryFailureBeforeAnyCheckpoint(t *testing.T) {
	// A failure at superstep 0 with checkpointing disabled has nothing
	// to roll back to.
	t.Run("checkpoint", func(t *testing.T) {
		g := pathGraph(t, 8)
		_, err := NewJob(g, ccCompute, Config{
			NumWorkers:   2,
			CheckpointFS: dfs.NewMemFS(), // FS present, but CheckpointEvery 0: none written
			FailureAt:    func(s int) bool { return s == 0 },
		}).Run()
		if !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("err = %v, want ErrNoCheckpoint", err)
		}
	})
}

func TestCheckpointRetentionGC(t *testing.T) {
	fs := dfs.NewMemFS()
	fired := false
	g := pathGraph(t, 12)
	stats, err := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(s int) bool {
			// Late failure: only GC-surviving checkpoints can serve it.
			if s == 8 && !fired {
				fired = true
				return true
			}
			return false
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("failure was never injected")
	}
	names, err := fs.List("checkpoint_")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) > 2 {
		t.Errorf("checkpoints on disk after GC = %v, want at most 2", names)
	}
	if stats.Faults.CheckpointsDeleted == 0 {
		t.Error("retention GC deleted nothing on a long run")
	}
	if stats.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", stats.Recoveries)
	}
}

func TestConfinedRecoveryPersistentAggregators(t *testing.T) {
	// A restart restores the persistent aggregate from the checkpoint, so
	// the re-executed supersteps' contributions are not counted twice.
	var finalSum int64 = -1
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() < 4 {
			ctx.Aggregate("sum", NewLong(1))
			ctx.SendMessage(v.ID(), NewLong(0)) // keep everyone active
			return nil
		}
		if v.ID() == 0 {
			finalSum = ctx.GetAggregated("sum").(*LongValue).Get()
		}
		v.VoteToHalt()
		return nil
	})
	g := pathGraph(t, 4)
	job := NewJob(g, comp, Config{
		NumWorkers:      2,
		CheckpointEvery: 1,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt:       failOnce(2),
	})
	job.RegisterAggregator("sum", LongSumAggregator{}, true)
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	// 4 vertices x 4 supersteps, regardless of the re-executed window.
	if finalSum != 16 {
		t.Errorf("persistent sum after recovery = %d, want 16", finalSum)
	}
}

// heldRows keeps the PerSuperstep slice the job's Stats held when the
// failing superstep finished, with a deep copy of its rows taken then.
type heldRows struct {
	at    int
	stats *Stats
	rows  []SuperstepStats
	copy  []byte
}

func (h *heldRows) JobStarted(info JobInfo)             { h.stats = info.Stats }
func (h *heldRows) SuperstepStarted(int, SuperstepInfo) {}
func (h *heldRows) JobFinished(*Stats, error)           {}
func (h *heldRows) SuperstepFinished(s int, _ SuperstepStats) {
	if s == h.at && h.rows == nil {
		h.rows = h.stats.PerSuperstep
		h.copy, _ = json.Marshal(h.rows)
	}
}

// TestRestartNeverRewritesHandedRows: the rows a listener was handed
// stay as they were when a checkpoint restart rewinds PerSuperstep and
// the re-run appends its own rows for the same supersteps.
func TestRestartNeverRewritesHandedRows(t *testing.T) {
	h := &heldRows{at: 3}
	stats, err := NewJob(pathGraph(t, 12), ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt:       failOnce(3),
		Listener:        h,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 || len(h.rows) != 4 || len(stats.PerSuperstep) != stats.Supersteps {
		t.Fatalf("%d recoveries, %d rows held, %d rows over %d supersteps",
			stats.Recoveries, len(h.rows), len(stats.PerSuperstep), stats.Supersteps)
	}
	if now, _ := json.Marshal(h.rows); !bytes.Equal(now, h.copy) {
		t.Error("held rows changed after the restart")
	}
	for s := 2; s < len(h.rows); s++ {
		if &h.rows[s] == &stats.PerSuperstep[s] {
			t.Errorf("the re-run of superstep %d wrote its row over the held one", s)
		}
	}
}
