package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// payload builds deterministic multi-block content: b blocks of the
// cluster's 16-byte test block size, each tagged with its index so a
// misdelivered block is visible, not just a wrong length.
func payload(tag byte, blocks int) []byte {
	p := make([]byte, blocks*16)
	for i := range p {
		p[i] = tag ^ byte(i/16) ^ byte(i%16)
	}
	return p
}

// TestWriterErrorReportsAcceptedBytes: when a block flush fails
// mid-Write, the writer must report how many bytes of p it accepted
// (all of them — they entered the buffer before the flush ran), not 0,
// so io.Copy-style callers account correctly.
func TestWriterErrorReportsAcceptedBytes(t *testing.T) {
	c := NewCluster(2, 2, 16)
	c.Kill(0)
	c.Kill(1)
	w, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	p := payload(1, 3)
	n, err := w.Write(p)
	if err == nil {
		t.Fatal("Write with every node dead: got nil error")
	}
	if !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("Write error = %v, want ErrNoDataNodes", err)
	}
	if n != len(p) {
		t.Fatalf("Write returned n=%d with error, want accepted count %d", n, len(p))
	}
	// The writer is sticky-failed: later writes and Close surface the
	// same error, and nothing is committed.
	if _, err := w.Write([]byte("more")); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("Write after failure = %v, want ErrNoDataNodes", err)
	}
	if err := w.Close(); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("Close after failure = %v, want ErrNoDataNodes", err)
	}
	if _, err := c.Open("f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("failed write committed: Open = %v, want ErrNotExist", err)
	}
}

// TestFailedCloseFreesPlacedBlocks: blocks a failed write placed
// before the failure must not leak in the namenode or on datanodes.
func TestFailedCloseFreesPlacedBlocks(t *testing.T) {
	c := NewCluster(2, 2, 16)
	w, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	// First block lands while nodes are alive...
	if _, err := w.Write(payload(1, 1)); err != nil {
		t.Fatal(err)
	}
	// ...then the cluster dies and the tail flush at Close fails.
	c.Kill(0)
	c.Kill(1)
	if _, err := w.Write(payload(1, 1)[:8]); err != nil {
		t.Fatal(err) // buffered only; no flush yet
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close with every node dead: got nil error")
	}
	if got := len(c.BlockIDs()); got != 0 {
		t.Fatalf("failed write leaked %d blocks in the namenode index", got)
	}
}

// TestNodeBoundsCheck: Node must return nil (not panic) for bad
// indexes, and DataNode query methods must be nil-safe so chained
// calls like Node(99).Alive() degrade to "dead, empty node".
func TestNodeBoundsCheck(t *testing.T) {
	c := NewCluster(3, 2, 16)
	for _, i := range []int{-1, 3, 99} {
		n := c.Node(i)
		if n != nil {
			t.Fatalf("Node(%d) = %v, want nil", i, n)
		}
		if n.Alive() {
			t.Fatalf("nil node reports alive")
		}
		if n.NumBlocks() != 0 || n.Gets() != 0 {
			t.Fatalf("nil node reports stored blocks")
		}
		if n.ID() != -1 {
			t.Fatalf("nil node ID = %d, want -1", n.ID())
		}
	}
	// Kill/Revive on bad indexes are ignored, not panics.
	c.Kill(-5)
	c.Kill(17)
	if got := c.Revive(17); got != 0 {
		t.Fatalf("Revive(17) = %d, want 0", got)
	}
	if c.Node(2) == nil || !c.Node(2).Alive() {
		t.Fatal("valid index must still resolve")
	}
}

// TestStreamingReaderSnapshotSurvivesOverwrite: a reader opened before
// an overwrite streams the old version to completion — the overwrite
// must neither corrupt it nor free its blocks early — and the old
// blocks are freed once the last reader closes.
func TestStreamingReaderSnapshotSurvivesOverwrite(t *testing.T) {
	c := NewCluster(3, 2, 16)
	v1, v2 := payload(1, 4), payload(2, 6)
	if err := WriteFile(c, "f", v1); err != nil {
		t.Fatal(err)
	}
	r, err := c.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	// Consume part of v1, then overwrite with v2 mid-stream.
	head := make([]byte, 24)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(c, "f", v2); err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, tail...); !bytes.Equal(got, v1) {
		t.Fatalf("in-flight reader got %d bytes, want the 48-byte old version intact", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// With the pin released, only v2's blocks (6 blocks × replication 2)
	// remain anywhere in the cluster.
	want := 6 * 2
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(i).NumBlocks()
	}
	if total != want {
		t.Fatalf("after reader close: %d replicas stored, want %d (old version freed)", total, want)
	}
	if got, err := ReadFile(c, "f"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("fresh read = %d bytes, err %v; want new version", len(got), err)
	}
}

// TestConcurrentWritersLastCloseWins: two writers racing on one path
// are both fully written, the later Close wins, and the loser's blocks
// are freed rather than leaked.
func TestConcurrentWritersLastCloseWins(t *testing.T) {
	c := NewCluster(3, 2, 16)
	a, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := payload(1, 3), payload(2, 5)
	if _, err := a.Write(pa); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(pb); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(c, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pb) {
		t.Fatalf("read %d bytes, want the 80-byte content of the last Close", len(got))
	}
	// Only the winner's 5 blocks × replication 2 survive.
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(i).NumBlocks()
	}
	if want := 5 * 2; total != want {
		t.Fatalf("%d replicas stored, want %d (loser's blocks freed)", total, want)
	}
}

// TestReplicaRotationSpreadsReads: repeated reads of the same blocks
// must rotate their starting replica so every live holder serves some
// of the load, instead of the first location absorbing all of it.
func TestReplicaRotationSpreadsReads(t *testing.T) {
	c := NewCluster(3, 3, 16) // every node holds every block
	if err := WriteFile(c, "f", payload(1, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ReadFile(c, "f"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < c.NumNodes(); i++ {
		if c.Node(i).Gets() == 0 {
			t.Fatalf("node %d served no reads: replica selection is not rotating", i)
		}
	}
}

// TestChecksumQuarantineAndHeal: a bit-flipped replica is detected at
// read time, skipped in favor of a healthy one, counted, and healed —
// and healing never copies from a corrupt source.
func TestChecksumQuarantineAndHeal(t *testing.T) {
	c := NewCluster(3, 3, 16)
	want := payload(1, 2)
	if err := WriteFile(c, "f", want); err != nil {
		t.Fatal(err)
	}
	blocks := c.BlockIDs()
	if len(blocks) != 2 {
		t.Fatalf("BlockIDs = %v, want 2 blocks", blocks)
	}
	for _, b := range blocks {
		locs := c.ReplicaNodes(b)
		if len(locs) != 3 {
			t.Fatalf("block %d on nodes %v, want 3 replicas", b, locs)
		}
		if !c.FlipReplicaBit(b, locs[0], 7) {
			t.Fatalf("FlipReplicaBit(%d, %d) found no replica", b, locs[0])
		}
	}
	// Reads must succeed despite the corruption; three passes guarantee
	// the rotation lands on every replica position of every block.
	for pass := 0; pass < 3; pass++ {
		got, err := ReadFile(c, "f")
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: corrupt bytes served to the reader", pass)
		}
	}
	if got := c.CorruptReads(); got != 2 {
		t.Fatalf("CorruptReads = %d, want 2 (one flipped replica per block)", got)
	}
	if got := c.UnderReplicated(); got != 2 {
		t.Fatalf("UnderReplicated = %d, want 2 after quarantine", got)
	}
	if created := c.Rereplicate(); created != 2 {
		t.Fatalf("Rereplicate created %d replicas, want 2", created)
	}
	if got := c.UnderReplicated(); got != 0 {
		t.Fatalf("UnderReplicated = %d after heal, want 0", got)
	}
	// Every surviving replica verifies: the heal copied clean bytes.
	if found := c.Scrub(); found != 0 {
		t.Fatalf("Scrub found %d corrupt replicas after heal, want 0", found)
	}
	if got, err := ReadFile(c, "f"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("post-heal read failed: %v", err)
	}
}

// TestScrubFindsCorruptionReadsMiss: a corrupt replica the read path
// never happened to select is still caught by the exhaustive scrubber.
func TestScrubFindsCorruptionReadsMiss(t *testing.T) {
	c := NewCluster(3, 3, 16)
	if err := WriteFile(c, "f", payload(3, 1)); err != nil {
		t.Fatal(err)
	}
	b := c.BlockIDs()[0]
	n := c.ReplicaNodes(b)[2]
	if !c.FlipReplicaBit(b, n, 0) {
		t.Fatal("FlipReplicaBit found no replica")
	}
	if found := c.Scrub(); found != 1 {
		t.Fatalf("Scrub = %d, want 1", found)
	}
	if c.Node(n).NumBlocks() != 0 {
		t.Fatal("scrubbed replica still stored on its node")
	}
	if created := c.Rereplicate(); created != 1 {
		t.Fatalf("Rereplicate created %d, want 1", created)
	}
	if found := c.Scrub(); found != 0 {
		t.Fatalf("Scrub after heal = %d, want 0", found)
	}
}

// TestStreamingReaderOverwriteChurn races streaming readers against
// overwriting writers on a shared set of paths. Under -race this is a
// data-race detector for the snapshot/refcount path; functionally,
// every read must return some committed version of its path, intact.
func TestStreamingReaderOverwriteChurn(t *testing.T) {
	c := NewCluster(4, 2, 16)
	const paths, writers, readers, rounds = 3, 3, 4, 20
	versions := make([][]byte, 8)
	for v := range versions {
		versions[v] = payload(byte(v), 2+v%3)
	}
	for p := 0; p < paths; p++ {
		if err := WriteFile(c, fmt.Sprintf("p%d", p), versions[0]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v := versions[(w+i)%len(versions)]
				if err := WriteFile(c, fmt.Sprintf("p%d", (w+i)%paths), v); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, err := ReadFile(c, fmt.Sprintf("p%d", (r+i)%paths))
				if err != nil {
					errCh <- err
					return
				}
				ok := false
				for _, v := range versions {
					if bytes.Equal(got, v) {
						ok = true
						break
					}
				}
				if !ok {
					errCh <- fmt.Errorf("reader %d: %d bytes matching no committed version", r, len(got))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Quiescent cluster: nothing under-replicated, nothing leaked
	// beyond the live versions (paths × blocks × replication is bounded
	// by the largest version: 4 blocks × 2 replicas × 3 paths).
	if got := c.UnderReplicated(); got != 0 {
		t.Fatalf("UnderReplicated = %d after churn, want 0", got)
	}
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(i).NumBlocks()
	}
	if max := paths * 4 * 2; total > max {
		t.Fatalf("%d replicas stored after churn, leak suspected (max live %d)", total, max)
	}
}
