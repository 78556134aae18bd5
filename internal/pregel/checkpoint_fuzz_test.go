package pregel

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"graft/internal/dfs"
)

// corpusDir holds FuzzDecodeCheckpoint's seed corpus: a real checkpoint
// (corpusCheckpoint) and a checkpoint whose placement count lies.
const corpusDir = "testdata/fuzz/FuzzDecodeCheckpoint"

// corpusCheckpoint writes the real checkpoint the fuzz corpus starts
// from: CC on a clustered graph, placed by the locality partitioner over
// four workers, with one aggregator, checkpointed at superstep 2 with
// messages in flight.
func corpusCheckpoint(t testing.TB) []byte {
	t.Helper()
	fs := dfs.NewMemFS()
	job := NewJob(clusteredGraph(t, 4, 12, 3), ccCompute, Config{
		NumWorkers: 4, Partitioner: PartitionLocality, Combiner: MinLongCombiner,
		CheckpointEvery: 2, CheckpointFS: fs, MaxSupersteps: 3,
	})
	job.RegisterAggregator("sum", LongSumAggregator{}, true)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	raw, err := dfs.ReadFile(fs, "checkpoint_00000002")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// lyingCheckpoint is a four-partition GRFTCKPT2 header whose count at
// the given section claims 2^40 entries in a file of a few bytes.
func lyingCheckpoint(section string) []byte {
	e := NewEncoder()
	e.PutString(checkpointMagic)
	e.PutUvarint(4) // superstep
	e.PutUvarint(4) // partitions
	if section == "aggregators" {
		e.PutUvarint(1 << 40)
		return e.Bytes()
	}
	e.PutUvarint(0)
	if section == "placement" {
		e.PutUvarint(1 << 40)
		return e.Bytes()
	}
	e.PutUvarint(0)
	e.PutUvarint(1 << 40) // vertices of partition 0
	return e.Bytes()
}

// reencode installs a decoded checkpoint into a fresh four-worker engine
// and writes it back out, the way a restore followed by the next
// checkpoint would.
func reencode(t *testing.T, st *checkpointState) []byte {
	t.Helper()
	fs := dfs.NewMemFS()
	job := NewJob(NewGraph(), ccCompute, Config{NumWorkers: 4, CheckpointFS: fs})
	for name := range st.broadcast {
		job.RegisterAggregator(name, LongSumAggregator{}, true)
	}
	en := newEngine(job)
	en.install(st)
	if err := en.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := dfs.ReadFile(fs, en.checkpointPath(en.superstep))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decoder is an engine with the corpus checkpoint's partition count,
// used only for decodeCheckpoint.
func decoder() *engine { return newEngine(NewJob(NewGraph(), ccCompute, Config{NumWorkers: 4})) }

// TestCheckpointCorpusIsCurrent pins GRFTCKPT2: the engine still writes
// the corpus checkpoint byte for byte, and it decodes and re-encodes to
// the same bytes.
func TestCheckpointCorpusIsCurrent(t *testing.T) {
	raw := corpusCheckpoint(t)
	file, err := os.ReadFile(corpusDir + "/cc-locality-4w")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(file)), "\n", 2)
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	if seed, err := strconv.Unquote(quoted); err != nil || seed != string(raw) {
		t.Fatalf("the corpus seed is not what the engine writes today (unquote err %v); regenerate it from corpusCheckpoint", err)
	}
	st, err := decoder().decodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.assign.len() == 0 || len(st.inbox) == 0 || len(st.broadcast) != 1 {
		t.Fatalf("corpus checkpoint lacks a section: %d placements, %d inboxes, %d aggregators",
			st.assign.len(), len(st.inbox), len(st.broadcast))
	}
	if again := reencode(t, st); !bytes.Equal(again, raw) {
		t.Fatalf("re-encoding changed the checkpoint: %d bytes became %d", len(raw), len(again))
	}
}

// TestLyingCheckpointIsSkipped: a count larger than the bytes left is an
// error, not an allocation, so recovery counts the checkpoint corrupt
// and falls back to the older one.
func TestLyingCheckpointIsSkipped(t *testing.T) {
	for _, section := range []string{"aggregators", "placement", "vertices"} {
		if _, err := decoder().decodeCheckpoint(lyingCheckpoint(section)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("lying %s count: err = %v, want ErrCorrupt", section, err)
		}
	}
	want := pathGraph(t, 12)
	if _, err := NewJob(want, ccCompute, Config{NumWorkers: 4}).Run(); err != nil {
		t.Fatal(err)
	}
	t.Run("checkpoint", func(t *testing.T) {
		fs := dfs.NewMemFS()
		cfg := Config{NumWorkers: 4, CheckpointEvery: 2, CheckpointFS: fs}
		crashed := false
		cfg.FailureAt = func(s int) bool {
			if s != 5 || crashed {
				return false
			}
			crashed = true
			// The newest checkpoint, superstep 4's, now lies about its size.
			if err := dfs.WriteFile(fs, fmt.Sprintf("checkpoint_%08d", 4), lyingCheckpoint("placement")); err != nil {
				t.Fatal(err)
			}
			return true
		}
		g := pathGraph(t, 12)
		stats, err := NewJob(g, ccCompute, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Faults.CorruptCheckpoints != 1 || len(stats.RecoveryEvents) != 1 ||
			stats.RecoveryEvents[0].CheckpointSuperstep != 2 {
			t.Fatalf("corrupt=%d events=%+v, want one recovery from checkpoint 2 past one corrupt checkpoint",
				stats.Faults.CorruptCheckpoints, stats.RecoveryEvents)
		}
		if g.ValuesDigest() != want.ValuesDigest() {
			t.Error("labels differ from the undisturbed run")
		}
	})
}

// FuzzDecodeCheckpoint: decoding hostile bytes never panics and never
// sizes an allocation by a count the input cannot back. Re-encoding a
// checkpoint it accepts reaches a fixed point in one step: what a
// restore writes back decodes, and writes back the same bytes. (The
// decoder accepts some non-canonical inputs — a non-minimal varint, a
// bool byte of 2 — so the first re-encoding may differ from the input;
// TestCheckpointCorpusIsCurrent pins that a real checkpoint does not.)
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := decoder().decodeCheckpoint(raw)
		if err != nil {
			return
		}
		once := reencode(t, st)
		st2, err := decoder().decodeCheckpoint(once)
		if err != nil {
			t.Fatalf("a re-encoded checkpoint does not decode: %v", err)
		}
		if twice := reencode(t, st2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d", len(once), len(twice))
		}
	})
}
