package trace

import (
	"bytes"
	"testing"

	"graft/internal/dfs"
)

// TestSinkOverClusterRoundTrip drives the async capture pipeline into
// the simulated distributed store — the deployment the paper assumes,
// where traces live in HDFS — and reads the trace back through the
// segment index, with a datanode failing (and reviving) between write
// and read, and then a corrupt replica under every block. The
// streaming, checksummed cluster data path must be transparent to the
// trace layer.
func TestSinkOverClusterRoundTrip(t *testing.T) {
	// Tiny blocks force every segment and sidecar to be multi-block.
	c := dfs.NewCluster(4, 2, 64)
	store := NewStore(c, "t")
	writeSinkJob(t, store, "job1", DefaultSegmentSize, laneBatchSize)
	files, err := c.List("t/")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, f := range files {
		if want[f], err = dfs.ReadFile(c, f); err != nil {
			t.Fatal(err)
		}
	}

	// Lose a datanode after the trace is written; replication must
	// carry the reads.
	c.Kill(0)
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Supersteps()); got != 3 {
		t.Fatalf("supersteps = %d, want 3", got)
	}
	ids := r.CapturedVertexIDs()
	if len(ids) == 0 {
		t.Fatal("no captured vertices read back through the cluster")
	}
	found := 0
	for _, s := range r.Supersteps() {
		for _, id := range ids {
			if r.Capture(s, id) != nil {
				found++
			}
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no captures resolved through the degraded cluster")
	}
	c.Revive(0)

	// Silent corruption beneath the trace layer: flip a bit in one
	// replica of every block. Checksums must keep every segment read
	// serving clean bytes.
	blocks := c.BlockIDs()
	for _, b := range blocks {
		if locs := c.ReplicaNodes(b); len(locs) != 2 || !c.FlipReplicaBit(b, locs[0], 3) {
			t.Fatalf("block %d on nodes %v, want 2 replicas to corrupt one", b, locs)
		}
	}
	r2, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r2.Supersteps() {
		for _, id := range ids {
			r2.Capture(s, id)
		}
	}
	if err := r2.Err(); err != nil {
		t.Fatalf("read with corrupt replicas: %v", err)
	}

	// Reading every block of every file twice in a row starts the two
	// reads on different replicas, so every flipped replica is found:
	// the bytes served never change, each flip is counted once, and
	// each block is left with its one clean replica.
	for _, f := range files {
		for off := int64(0); off < int64(len(want[f])); off += 64 {
			end := min(off+64, int64(len(want[f])))
			for i := 0; i < 2; i++ {
				got, err := dfs.ReadRange(c, f, off, end-off)
				if err != nil || !bytes.Equal(got, want[f][off:end]) {
					t.Fatalf("%s [%d, %d): %v", f, off, end, err)
				}
			}
		}
		if got, err := dfs.ReadFile(c, f); err != nil || !bytes.Equal(got, want[f]) {
			t.Fatalf("%s reads back changed: %v", f, err)
		}
	}
	if got := c.Stats().CorruptReads; got != int64(len(blocks)) {
		t.Fatalf("CorruptReads = %d, want one per block (%d)", got, len(blocks))
	}
	for _, b := range blocks {
		if locs := c.ReplicaNodes(b); len(locs) != 1 {
			t.Fatalf("block %d on nodes %v, want its one clean replica", b, locs)
		}
	}
}
