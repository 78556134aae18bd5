package pregel

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestBitmapMatchesReference runs random sequences of set, clear, grow,
// reset and the truncation rebuild does against a map, over sizes that
// span several summary words, and checks every query against the map and
// the summary invariant — every non-zero word has its summary bit —
// after every operation.
func TestBitmapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		var b bitmap
		ref := map[int]bool{}
		nbits := 0
		var sets []int // every index set so far, to aim clears at
		for op := 0; op < 2000; op++ {
			var what string
			switch k := r.IntN(100); {
			case k < 45 && nbits > 0:
				i := r.IntN(nbits)
				b.set(i)
				ref[i] = true
				sets = append(sets, i)
				what = "set"
			case k < 80 && nbits > 0:
				// Aim most clears at bits once set, so words empty and
				// leave the summary stale.
				i := r.IntN(nbits)
				if len(sets) > 0 && r.IntN(4) > 0 {
					if j := sets[r.IntN(len(sets))]; j < nbits {
						i = j
					}
				}
				b.clear(i)
				delete(ref, i)
				what = "clear"
			case k < 90:
				nbits += r.IntN(3 * 4096)
				b = b.grown(nbits)
				what = "grow"
			case k < 95:
				nbits = r.IntN(nbits + 1)
				b = b.truncated(nbits)
				for i := range ref {
					if i >= nbits {
						delete(ref, i)
					}
				}
				what = "truncate"
			default:
				b.reset()
				clear(ref)
				what = "reset"
			}
			checkBitmap(t, b, ref, nbits, seed, op, what)
			if t.Failed() {
				return
			}
		}
	}
}

func checkBitmap(t *testing.T, b bitmap, ref map[int]bool, nbits int, seed uint64, op int, what string) {
	t.Helper()
	at := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d op %d (%s): "+format, append([]any{seed, op, what}, args...)...)
	}
	if len(b.w) != (nbits+63)>>6 || len(b.sum) != (len(b.w)+63)>>6 {
		at("%d words and %d summary words for %d bits", len(b.w), len(b.sum), nbits)
		return
	}
	for wi, word := range b.w {
		if word != 0 && b.sum[wi>>6]&(1<<(uint(wi)&63)) == 0 {
			at("word %d is %#x but its summary bit is clear", wi, word)
		}
	}
	want := make([]int, 0, len(ref))
	for i := range ref {
		want = append(want, i)
	}
	slices.Sort(want)
	for _, i := range want {
		if !b.test(i) {
			at("bit %d set in the reference, clear in the bitmap", i)
		}
	}
	if n := b.count(); n != len(want) {
		at("count = %d, want %d", n, len(want))
	}
	if got := b.any(); got != (len(want) > 0) {
		at("any = %v with %d bits set", got, len(want))
	}
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	if !slices.Equal(got, want) {
		at("forEach visits %d bits, want %d in ascending order (%v... vs %v...)",
			len(got), len(want), got[:min(len(got), 5)], want[:min(len(want), 5)])
	}
}
