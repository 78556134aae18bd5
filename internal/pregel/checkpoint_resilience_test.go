package pregel

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"graft/internal/dfs"
)

// corrupt truncates a stored file to half its length, simulating a
// torn write that survived a crash.
func corrupt(t *testing.T, fs dfs.FileSystem, path string) {
	t.Helper()
	raw, err := dfs.ReadFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(fs, path, raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
}

// writeCheckpointAt snapshots en at the given superstep.
func writeCheckpointAt(t *testing.T, en *engine, superstep int) {
	t.Helper()
	en.superstep = superstep
	if err := en.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverySkipsTruncatedNewestCheckpoint(t *testing.T) {
	fs := dfs.NewMemFS()
	cfg := Config{NumWorkers: 2, CheckpointFS: fs, CheckpointEvery: 1}
	en := newEngine(NewJob(pathGraph(t, 5), ccCompute, cfg))
	writeCheckpointAt(t, en, 0)
	writeCheckpointAt(t, en, 2)
	corrupt(t, fs, en.checkpointPath(2))

	en2 := newEngine(NewJob(pathGraph(t, 5), ccCompute, cfg))
	en2.superstep = 2
	if err := en2.consumeRecoveryBudget(); err != nil {
		t.Fatal(err)
	}
	if err := en2.restoreNewestIntact(); err != nil {
		t.Fatalf("recovery should fall back to the intact checkpoint: %v", err)
	}
	if en2.superstep != 0 {
		t.Errorf("recovered to superstep %d, want 0 (the intact checkpoint)", en2.superstep)
	}
	if en2.stats.Faults.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", en2.stats.Faults.CorruptCheckpoints)
	}
}

func TestRecoverySkipsBadMagic(t *testing.T) {
	fs := dfs.NewMemFS()
	cfg := Config{NumWorkers: 2, CheckpointFS: fs, CheckpointEvery: 1}
	en := newEngine(NewJob(pathGraph(t, 4), ccCompute, cfg))
	writeCheckpointAt(t, en, 1)
	// A well-formed file of the wrong format: valid length-prefixed
	// string, wrong magic.
	e := NewEncoder()
	e.PutString("NOTACKPT")
	if err := dfs.WriteFile(fs, en.checkpointPath(3), e.Bytes()); err != nil {
		t.Fatal(err)
	}

	en2 := newEngine(NewJob(pathGraph(t, 4), ccCompute, cfg))
	en2.superstep = 3
	if err := en2.consumeRecoveryBudget(); err != nil {
		t.Fatal(err)
	}
	if err := en2.restoreNewestIntact(); err != nil {
		t.Fatalf("recovery should skip the bad-magic file: %v", err)
	}
	if en2.superstep != 1 {
		t.Errorf("recovered to superstep %d, want 1", en2.superstep)
	}
	if en2.stats.Faults.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", en2.stats.Faults.CorruptCheckpoints)
	}
}

func TestRecoveryFailsWhenEveryCheckpointCorrupt(t *testing.T) {
	fs := dfs.NewMemFS()
	cfg := Config{NumWorkers: 2, CheckpointFS: fs, CheckpointEvery: 1}
	en := newEngine(NewJob(pathGraph(t, 4), ccCompute, cfg))
	writeCheckpointAt(t, en, 0)
	writeCheckpointAt(t, en, 1)
	corrupt(t, fs, en.checkpointPath(0))
	corrupt(t, fs, en.checkpointPath(1))

	en2 := newEngine(NewJob(pathGraph(t, 4), ccCompute, cfg))
	en2.superstep = 1
	if err := en2.consumeRecoveryBudget(); err != nil {
		t.Fatal(err)
	}
	err := en2.restoreNewestIntact()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if en2.stats.Faults.CorruptCheckpoints != 2 {
		t.Errorf("CorruptCheckpoints = %d, want 2", en2.stats.Faults.CorruptCheckpoints)
	}
}

// failNthWriteFS fails the Nth Write call across all files, wrapping a
// MemFS. (The internal/faults injector can't be used here: it imports
// pregel.)
type failNthWriteFS struct {
	dfs.FileSystem
	n     int
	calls int
}

func (f *failNthWriteFS) Create(path string) (io.WriteCloser, error) {
	w, err := f.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &failNthWriter{w: w, fs: f}, nil
}

type failNthWriter struct {
	w  io.WriteCloser
	fs *failNthWriteFS
}

func (w *failNthWriter) Write(p []byte) (int, error) {
	w.fs.calls++
	if w.fs.calls == w.fs.n {
		// Half the buffer lands, then the device dies.
		w.w.Write(p[:len(p)/2])
		return len(p) / 2, fmt.Errorf("simulated device failure")
	}
	return w.w.Write(p)
}

func (w *failNthWriter) Close() error { return w.w.Close() }

func TestFailedCheckpointWriteLeavesNoPartialFile(t *testing.T) {
	mem := dfs.NewMemFS()
	fs := &failNthWriteFS{FileSystem: mem, n: 1}
	en := newEngine(NewJob(pathGraph(t, 5), ccCompute,
		Config{NumWorkers: 2, CheckpointFS: fs, CheckpointEvery: 1}))
	if err := en.writeCheckpoint(); err == nil {
		t.Fatal("writeCheckpoint should surface the device failure")
	}
	names, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("partial checkpoint left behind: %v", names)
	}
}

// TestRecoveryKeepsRemovedVertexState pins a bug the chaos sweep
// found: a vertex that leaves the computation (RemoveVertexRequest)
// before a checkpoint keeps its final value only in the input graph;
// recovery must not wipe that entry while re-pointing the graph at the
// restored partitions. MWM-style algorithms read their output from
// exactly these removed vertices.
func TestRecoveryKeepsRemovedVertexState(t *testing.T) {
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		switch {
		case ctx.Superstep() == 0 && v.ID() == 0:
			// Vertex 0 records its result and leaves the computation.
			v.SetValue(NewLong(99))
			ctx.RemoveVertexRequest(v.ID())
		case ctx.Superstep() >= 3:
			v.VoteToHalt()
		}
		return nil
	})
	failed := false
	g := pathGraph(t, 4)
	stats, err := NewJob(g, comp, Config{
		NumWorkers:      2,
		CheckpointEvery: 1,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt: func(superstep int) bool {
			if superstep == 2 && !failed {
				failed = true
				return true
			}
			return false
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	v := g.Vertex(0)
	if v == nil {
		t.Fatal("removed vertex 0 lost from the input graph by recovery")
	}
	if got := v.Value().(*LongValue).Get(); got != 99 {
		t.Errorf("removed vertex 0 value = %d after recovery, want 99", got)
	}
}

// TestJobSurvivesCorruptNewestCheckpoint is the end-to-end version: a
// worker crashes right when the newest checkpoint is torn, the engine
// falls back to the previous one, and the job still converges to the
// fault-free answer.
func TestJobSurvivesCorruptNewestCheckpoint(t *testing.T) {
	want := ccResult(t, Config{NumWorkers: 3})

	fs := dfs.NewMemFS()
	failed := false
	g := twoComponentGraph(t)
	stats, err := NewJob(g, ccCompute, Config{
		NumWorkers:      3,
		CheckpointEvery: 1,
		CheckpointFS:    fs,
		FailureAt: func(superstep int) bool {
			if superstep == 2 && !failed {
				failed = true
				corrupt(t, fs, fmt.Sprintf("checkpoint_%08d", 2))
				return true
			}
			return false
		},
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("failure was never injected")
	}
	if stats.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", stats.Recoveries)
	}
	if stats.Faults.CorruptCheckpoints != 1 {
		t.Errorf("CorruptCheckpoints = %d, want 1", stats.Faults.CorruptCheckpoints)
	}
	got := map[VertexID]int64{}
	g.Each(func(v *Vertex) { got[v.ID()] = v.Value().(*LongValue).Get() })
	for id, label := range want {
		if got[id] != label {
			t.Errorf("vertex %d: label %d after degraded recovery, want %d", id, got[id], label)
		}
	}
}
