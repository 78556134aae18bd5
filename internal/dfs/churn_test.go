package dfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestClusterWritesRaceNodeChurn hammers a cluster with concurrent
// writers while other goroutines kill and revive nodes and read the
// files back. Run under -race this is primarily a data-race detector
// for the placement and read paths; functionally, every file written
// while at least one node was alive must read back intact once every
// node is up again.
func TestClusterWritesRaceNodeChurn(t *testing.T) {
	c := NewCluster(4, 2, 256)

	const writers = 8
	const filesPerWriter = 30
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < filesPerWriter; i++ {
				path := fmt.Sprintf("churn/w%d/f%03d", w, i)
				data := []byte(fmt.Sprintf("writer %d file %d payload padding padding padding", w, i))
				if err := WriteFile(c, path, data); err != nil {
					errs[w] = fmt.Errorf("%s: %w", path, err)
					return
				}
			}
		}(w)
	}

	// Churn: nodes 0 and 1 flap while writes are in flight; node 2 and
	// 3 stay up so every block always has a live placement target.
	done := make(chan struct{})
	var churn sync.WaitGroup
	for n := 0; n < 2; n++ {
		churn.Add(1)
		go func(n int) {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%2 == 0 {
					c.Kill(n)
				} else {
					c.Revive(n)
				}
			}
		}(n)
	}
	// A reader races both: a read may miss a file not yet written or a
	// block whose replicas are all on flapping nodes, but whatever it
	// returns must be the file's bytes.
	readErr := make(chan error, 1)
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			w, f := i%writers, (i/writers)%filesPerWriter
			got, err := ReadFile(c, fmt.Sprintf("churn/w%d/f%03d", w, f))
			if err == nil && string(got) != fmt.Sprintf("writer %d file %d payload padding padding padding", w, f) {
				readErr <- fmt.Errorf("churn/w%d/f%03d read back as %q", w, f, got)
				return
			}
			if err != nil && !errors.Is(err, ErrNotExist) && !errors.Is(err, ErrBlockUnavailable) {
				readErr <- err
				return
			}
		}
	}()

	wg.Wait()
	close(done)
	churn.Wait()
	close(readErr)
	if err := <-readErr; err != nil {
		t.Fatalf("read during churn: %v", err)
	}

	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d failed despite live nodes: %v", w, err)
		}
	}

	// Nodes 2 and 3 never died, so every block got its two replicas.
	// Bring every node back, then verify every byte of every file.
	if got := c.Stats().DegradedWrites; got != 0 {
		t.Fatalf("DegradedWrites = %d with two nodes always up", got)
	}
	c.Revive(0)
	c.Revive(1)
	for w := 0; w < writers; w++ {
		for i := 0; i < filesPerWriter; i++ {
			path := fmt.Sprintf("churn/w%d/f%03d", w, i)
			want := fmt.Sprintf("writer %d file %d payload padding padding padding", w, i)
			got, err := ReadFile(c, path)
			if err != nil {
				t.Fatalf("%s unreadable after churn: %v", path, err)
			}
			if string(got) != want {
				t.Fatalf("%s corrupted: %q", path, got)
			}
		}
	}
}

// TestClusterMidWriteNodeDeath kills a node between a writer's block
// flushes: placement retries onto live nodes, the write succeeds, and
// the counters record what happened.
func TestClusterMidWriteNodeDeath(t *testing.T) {
	c := NewCluster(3, 2, 64)
	w, err := c.Create("big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	if _, err := w.Write(buf); err != nil { // flushes block 1 with all nodes up
		t.Fatal(err)
	}
	c.Kill(0)
	if _, err := w.Write(buf); err != nil { // block 2 must dodge the dead node
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(c, "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*len(buf) {
		t.Fatalf("file length %d, want %d", len(got), 2*len(buf))
	}
	if c.Stats().WriteRetries == 0 {
		t.Error("WriteRetries not counted for the dead-node placement")
	}
	// Two live nodes were enough for both replicas of block 2.
	if c.Stats().DegradedWrites != 0 {
		t.Errorf("DegradedWrites = %d, want 0", c.Stats().DegradedWrites)
	}
	for _, b := range c.BlockIDs() {
		if locs := c.ReplicaNodes(b); len(locs) != 2 {
			t.Errorf("block %d on nodes %v, want 2 replicas", b, locs)
		}
	}
}

// TestClusterDegradedWriteCounted pins the DegradedWrites counter: with
// only one of two replica targets alive, blocks commit under-replicated
// and the counter says so. Nothing heals them: after the other node
// returns, the block still has its one replica, and reads are served
// from it.
func TestClusterDegradedWriteCounted(t *testing.T) {
	c := NewCluster(2, 2, 1024)
	c.Kill(1)
	if err := WriteFile(c, "f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if c.Stats().DegradedWrites == 0 {
		t.Error("DegradedWrites not counted with one target dead")
	}
	c.Revive(1)
	for _, b := range c.BlockIDs() {
		if locs := c.ReplicaNodes(b); len(locs) != 1 || locs[0] != 0 {
			t.Errorf("block %d on nodes %v, want only node 0", b, locs)
		}
	}
	if got, err := ReadFile(c, "f"); err != nil || string(got) != "payload" {
		t.Errorf("read after Revive = %q, %v", got, err)
	}
}
