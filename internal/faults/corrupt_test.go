package faults

import (
	"bytes"
	"testing"

	"graft/internal/dfs"
)

// corruptTestCluster builds a 3-node, replication-3 cluster holding
// one 4-block file (16-byte blocks), the shape the chaos acceptance
// test wants: every node holds every block, and 4 mod 3 != 0 means
// three sequential read passes land the rotating replica selection on
// every replica position of every block.
func corruptTestCluster(t *testing.T) (*dfs.Cluster, []byte) {
	t.Helper()
	c := dfs.NewCluster(3, 3, 16)
	body := make([]byte, 64)
	for i := range body {
		body[i] = byte(i * 7)
	}
	if err := dfs.WriteFile(c, "trace/seg-0", body); err != nil {
		t.Fatal(err)
	}
	return c, body
}

// TestCorruptReplicasChaos is the chaos acceptance test: with one
// replica bit-flipped per block, every read still succeeds with
// correct bytes, and the corrupt replicas are detected, counted and
// dropped from the namenode index, leaving the clean ones.
func TestCorruptReplicasChaos(t *testing.T) {
	c, want := corruptTestCluster(t)
	corrupted := CorruptReplicas(c, 42, 1)
	if corrupted != 4 {
		t.Fatalf("CorruptReplicas corrupted %d replicas, want 4 (one per block)", corrupted)
	}
	readEveryReplica(t, c, want)
	if got := c.Stats().CorruptReads; got != 4 {
		t.Fatalf("CorruptReads = %d, want 4", got)
	}
	for _, b := range c.BlockIDs() {
		if locs := c.ReplicaNodes(b); len(locs) != 2 {
			t.Fatalf("block %d on nodes %v, want the 2 clean replicas", b, locs)
		}
	}
}

// readEveryReplica reads the test file three times, which lands the
// rotating replica selection on every replica of every block (see
// corruptTestCluster), so every corrupt replica is found and
// quarantined. It fails the test if a read does not return the file.
func readEveryReplica(t *testing.T, c *dfs.Cluster, want []byte) {
	t.Helper()
	for pass := 0; pass < 3; pass++ {
		if got, err := dfs.ReadFile(c, "trace/seg-0"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("pass %d: read = %v, corrupt bytes or an error", pass, err)
		}
	}
}

// TestCorruptReplicasDeterministic: the same seed must damage the same
// replicas — the reproducibility contract every injector in this
// package honors.
func TestCorruptReplicasDeterministic(t *testing.T) {
	survivors := func(seed int64) []int {
		c, want := corruptTestCluster(t)
		if n := CorruptReplicas(c, seed, 1); n != 4 {
			t.Fatalf("corrupted %d, want 4", n)
		}
		readEveryReplica(t, c, want) // quarantine everything the seed damaged
		var left []int
		for _, b := range c.BlockIDs() {
			left = append(left, c.ReplicaNodes(b)...)
		}
		return left
	}
	a, b := survivors(7), survivors(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different damage: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different damage: %v vs %v", a, b)
		}
	}
	// A different seed should (for this geometry) pick at least one
	// different replica; equality here would mean the seed is ignored.
	differs := false
	d := survivors(8)
	for i := range a {
		if i < len(d) && a[i] != d[i] {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 damaged identical replicas — seed not mixed in")
	}
}

// TestCorruptReplicasStride: n > 1 corrupts every nth block only.
func TestCorruptReplicasStride(t *testing.T) {
	c, want := corruptTestCluster(t)
	if got := CorruptReplicas(c, 3, 2); got != 2 {
		t.Fatalf("stride-2 over 4 blocks corrupted %d, want 2", got)
	}
	readEveryReplica(t, c, want)
	if got := c.Stats().CorruptReads; got != 2 {
		t.Fatalf("CorruptReads = %d, want 2", got)
	}
}
