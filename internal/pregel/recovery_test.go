package pregel

import (
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

func TestConfinedRecoveryMatchesFailureFree(t *testing.T) {
	want := ccValues(t, 12, Config{NumWorkers: 3})

	fired := false
	g := pathGraph(t, 12)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		Recovery:        RecoveryLog,
		MsgLogFS:        dfs.NewMemFS(),
		PartitionFailureAt: func(s int) []int {
			if s == 3 && !fired {
				fired = true
				return []int{1}
			}
			return nil
		},
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("failure was never injected")
	}
	got := map[VertexID]int64{}
	g.Each(func(v *Vertex) { got[v.ID()] = v.Value().(*LongValue).Get() })
	requireSameLabels(t, want, got)

	if len(stats.RecoveryEvents) != 1 {
		t.Fatalf("recovery events = %+v, want exactly one", stats.RecoveryEvents)
	}
	ev := stats.RecoveryEvents[0]
	if ev.Mode != "log" {
		t.Errorf("recovery mode = %q, want log", ev.Mode)
	}
	if ev.PartitionsRecomputed != 1 {
		t.Errorf("partitions recomputed = %d, want 1 (confined)", ev.PartitionsRecomputed)
	}
	if len(ev.Partitions) != 1 || ev.Partitions[0] != 1 {
		t.Errorf("failed partitions = %v, want [1]", ev.Partitions)
	}
	if ev.MessagesReplayed == 0 {
		t.Error("no messages replayed from the outbox log")
	}
	if stats.MessagesLogged == 0 || stats.BytesLogged == 0 {
		t.Errorf("outbox log stats = %d msgs / %d bytes, want nonzero",
			stats.MessagesLogged, stats.BytesLogged)
	}
}

func TestConfinedRecoveryNestedFailure(t *testing.T) {
	want := ccValues(t, 12, Config{NumWorkers: 3})

	// Stage 0: fail partition 1 at the live barrier 3. Stage 1: the
	// replay window is [0, 3] (CheckpointEvery 4 → checkpoint at 0), so
	// the next consultation is a replayed barrier — fail partition 0
	// there, nested inside the first recovery.
	stage := 0
	g := pathGraph(t, 12)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 4,
		CheckpointFS:    dfs.NewMemFS(),
		Recovery:        RecoveryLog,
		MsgLogFS:        dfs.NewMemFS(),
		PartitionFailureAt: func(s int) []int {
			switch {
			case stage == 0 && s == 3:
				stage = 1
				return []int{1}
			case stage == 1:
				stage = 2
				return []int{0}
			}
			return nil
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
	if len(stats.RecoveryEvents) != 1 {
		t.Fatalf("recovery events = %+v, want one merged event", stats.RecoveryEvents)
	}
	ev := stats.RecoveryEvents[0]
	if ev.Mode != "log" {
		t.Errorf("recovery mode = %q, want log", ev.Mode)
	}
	if len(ev.Partitions) != 2 || ev.Partitions[0] != 0 || ev.Partitions[1] != 1 {
		t.Errorf("failed partitions = %v, want [0 1]", ev.Partitions)
	}
	if ev.PartitionsRecomputed != 2 {
		t.Errorf("partitions recomputed = %d, want 2", ev.PartitionsRecomputed)
	}
}

func TestRecoveryFailureBeforeAnyCheckpoint(t *testing.T) {
	// A failure at superstep 0 with checkpointing disabled has nothing
	// to roll back to, in either mode.
	for _, mode := range []RecoveryMode{RecoveryCheckpoint, RecoveryLog} {
		t.Run(mode.String(), func(t *testing.T) {
			g := pathGraph(t, 8)
			_, err := NewJob(g, ccCompute, Config{
				NumWorkers:         2,
				CheckpointFS:       dfs.NewMemFS(), // FS present, but CheckpointEvery 0: none written
				Recovery:           mode,
				MsgLogFS:           dfs.NewMemFS(),
				PartitionFailureAt: wholeJob(func(s int) bool { return s == 0 }),
			}).Run()
			if !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("err = %v, want ErrNoCheckpoint", err)
			}
		})
	}
}

func TestConfinedRecoveryCorruptLogFallsBack(t *testing.T) {
	want := ccValues(t, 12, Config{NumWorkers: 3})

	logFS := dfs.NewMemFS()
	fired := false
	g := pathGraph(t, 12)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		Recovery:        RecoveryLog,
		MsgLogFS:        logFS,
		PartitionFailureAt: func(s int) []int {
			if s != 3 || fired {
				return nil
			}
			fired = true
			// Rot every log segment on disk before the failure fires:
			// the replay must detect the damage and degrade to a full
			// checkpoint restart rather than replay garbage.
			names, err := logFS.List("msglog/")
			if err != nil {
				t.Error(err)
			}
			for _, name := range names {
				w, err := logFS.Create(name)
				if err != nil {
					t.Error(err)
					continue
				}
				w.Write([]byte("GARBAGEGARBAGE"))
				w.Close()
			}
			return []int{1}
		},
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
	if ev.Mode != "checkpoint" {
		t.Errorf("recovery mode = %q, want checkpoint fallback", ev.Mode)
	}
	if ev.PartitionsRecomputed != 3 {
		t.Errorf("partitions recomputed = %d, want all 3 (full restart)", ev.PartitionsRecomputed)
	}
	if stats.Faults.CorruptLogSegments == 0 {
		t.Error("corrupt log segment was not counted")
	}
}

func TestCheckpointRetentionGC(t *testing.T) {
	fs := dfs.NewMemFS()
	fired := false
	g := pathGraph(t, 12)
	stats, err := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		PartitionFailureAt: wholeJob(func(s int) bool {
			// Late failure: only GC-surviving checkpoints can serve it.
			if s == 8 && !fired {
				fired = true
				return true
			}
			return false
		}),
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
	// Confined replay suppresses Aggregate calls — the live barrier at
	// the failed superstep already merged every partition's
	// contribution, so replaying them would double-count.
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
	fired := false
	g := pathGraph(t, 4)
	job := NewJob(g, comp, Config{
		NumWorkers:      2,
		CheckpointEvery: 1,
		CheckpointFS:    dfs.NewMemFS(),
		Recovery:        RecoveryLog,
		MsgLogFS:        dfs.NewMemFS(),
		PartitionFailureAt: func(s int) []int {
			if s == 2 && !fired {
				fired = true
				return []int{1}
			}
			return nil
		},
	})
	job.RegisterAggregator("sum", LongSumAggregator{}, true)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 vertices x 4 supersteps, regardless of the replayed window.
	if finalSum != 16 {
		t.Errorf("persistent sum after confined recovery = %d, want 16", finalSum)
	}
}

// TestConfinedRecoveryRequiresLanePlane keeps the name it had when a
// second message plane could be configured; what RecoveryLog still
// requires is somewhere to write the outbox logs.
func TestConfinedRecoveryRequiresLanePlane(t *testing.T) {
	_, err := NewJob(pathGraph(t, 4), ccCompute, Config{Recovery: RecoveryLog}).Run()
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("RecoveryLog without MsgLogFS: err = %v, want ErrInvalidConfig", err)
	}
}
