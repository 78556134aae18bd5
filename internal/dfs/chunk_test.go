package dfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestChunkChecksumsVerifyWhatIsRead: a block's replica carries one
// CRC-32 per 512-byte chunk, and a read checks only the chunks it
// returns bytes from. A flip in chunk 3 goes unnoticed by a read inside
// chunk 0, is caught by the first read that covers chunk 3, and is
// always caught by a streamed read, which covers every chunk.
func TestChunkChecksumsVerifyWhatIsRead(t *testing.T) {
	c := NewCluster(2, 2, 0)
	want := make([]byte, 4000) // one block, eight chunks
	rand.New(rand.NewSource(1)).Read(want)
	flip := func(path string) BlockID {
		t.Helper()
		if err := WriteFile(c, path, want); err != nil {
			t.Fatal(err)
		}
		ids := c.BlockIDs()
		b := ids[len(ids)-1]
		if !c.FlipReplicaBit(b, 0, (3*bytesPerChecksum+17)*8+5) {
			t.Fatal("no replica to corrupt")
		}
		return b
	}
	b := flip("f")

	// Two reads, so the rotation starts one of them on each replica.
	for i := 0; i < 2; i++ {
		got, err := ReadRange(c, "f", 10, 400)
		if err != nil || !bytes.Equal(got, want[10:410]) {
			t.Fatalf("read %d inside chunk 0 = %v", i, err)
		}
	}
	if got := c.Stats().CorruptReads; got != 0 {
		t.Fatalf("CorruptReads = %d after reads inside chunk 0, want 0", got)
	}
	if locs := c.ReplicaNodes(b); len(locs) != 2 {
		t.Fatalf("replicas %v after reads that missed the flip, want both", locs)
	}

	for i := 0; i < 2; i++ {
		got, err := ReadRange(c, "f", 1500, 200) // chunks 2 and 3
		if err != nil || !bytes.Equal(got, want[1500:1700]) {
			t.Fatalf("read %d covering chunk 3 = %v", i, err)
		}
	}
	if got := c.Stats().CorruptReads; got != 1 {
		t.Fatalf("CorruptReads = %d after reads covering chunk 3, want 1", got)
	}
	if locs := c.ReplicaNodes(b); len(locs) != 1 || locs[0] != 1 {
		t.Fatalf("replicas %v, want only the clean one on node 1", locs)
	}

	flip("g")
	for i := 0; i < 2; i++ {
		got, err := ReadFile(c, "g")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("streamed read %d = %v", i, err)
		}
	}
	if got := c.Stats().CorruptReads; got != 2 {
		t.Fatalf("CorruptReads = %d after streaming a fresh flipped copy, want 2", got)
	}
}

// TestChunkChecksumsProperty: over block sizes around the chunk size, a
// random range read over a replica with one random flipped bit always
// returns the written bytes, and CorruptReads rises exactly when the
// flipped bit's chunk overlaps the range. The flip is put on the
// replica the rotation tries first for its block, so a read that
// fetches the block always meets it.
func TestChunkChecksumsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, bs := range []int{16, 500, 512, 513, 64 << 10} {
		c := NewCluster(2, 2, bs)
		for trial := 0; trial < 100; trial++ {
			path := fmt.Sprintf("f%d", trial)
			want := make([]byte, 1+rng.Intn(3*bs))
			rng.Read(want)
			if err := WriteFile(c, path, want); err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(len(want))
			n := 1 + rng.Intn(len(want)-off)
			pos := rng.Intn(len(want)) // the flipped byte
			blocks := c.BlockIDs()[len(c.BlockIDs())-(len(want)+bs-1)/bs:]
			bi := pos / bs
			// The read fetches its blocks in order from off's, each
			// taking the next rotor value.
			locs := c.ReplicaNodes(blocks[bi])
			node := locs[int((c.rotor.Load()+int64(max(bi-off/bs, 0)))%int64(len(locs)))]
			if !c.FlipReplicaBit(blocks[bi], node, int64(pos%bs)*8+rng.Int63n(8)) {
				t.Fatal("no replica to corrupt")
			}
			chunkLo := bi*bs + pos%bs/bytesPerChecksum*bytesPerChecksum
			chunkHi := min(chunkLo+bytesPerChecksum, (bi+1)*bs, len(want))
			overlaps := chunkLo < off+n && off < chunkHi

			before := c.Stats().CorruptReads
			got, err := ReadRange(c, path, int64(off), int64(n))
			if err != nil || !bytes.Equal(got, want[off:off+n]) {
				t.Fatalf("block size %d, trial %d: [%d, +%d) = %v", bs, trial, off, n, err)
			}
			if rose := c.Stats().CorruptReads > before; rose != overlaps {
				t.Fatalf("block size %d, trial %d: [%d, +%d) with byte %d flipped (chunk [%d, %d)): CorruptReads rose = %v",
					bs, trial, off, n, pos, chunkLo, chunkHi, rose)
			}
			if err := c.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPointReadCopiesNoNamenodeState: a ranged read allocates its
// handle and the bytes it returns, and nothing per block: the handle
// shares the committed version's block list and offsets, and the
// replica list is read without a heap copy.
func TestPointReadCopiesNoNamenodeState(t *testing.T) {
	c := NewCluster(3, 2, 16)
	if err := WriteFile(c, "f", payload(1, 8)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadRange(c, "f", 10, 40); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("a 3-block ranged read makes %.0f allocations, want the handle and the buffer", allocs)
	}
}
