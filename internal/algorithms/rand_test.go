package algorithms

import "testing"

// --- Determinism of the per-vertex RNG ---

func TestVertexRandProperties(t *testing.T) {
	if VertexRand(1, 2, 3, 4) != VertexRand(1, 2, 3, 4) {
		t.Error("VertexRand not deterministic")
	}
	seen := map[uint64]bool{}
	for i := int64(0); i < 1000; i++ {
		seen[VertexRand(1, i, 3, 4)] = true
	}
	if len(seen) < 1000 {
		t.Errorf("VertexRand collisions across vertex IDs: %d unique of 1000", len(seen))
	}
	// Draw streams differ across supersteps.
	if VertexRand(1, 2, 3, 0) == VertexRand(1, 2, 4, 0) {
		t.Error("VertexRand identical across supersteps")
	}
	// Stream covers range reasonably.
	r := newVertexRandStream(1, 2, 3)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[r.intn(7)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d count %d badly skewed", b, c)
		}
	}
}
