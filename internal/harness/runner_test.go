package harness

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeCells returns two cells that append their name to order and
// return the next duration of their script (the last one repeats).
func fakeCells(order *[]string, a, b []time.Duration) (Cell, Cell) {
	cell := func(name string, script []time.Duration) Cell {
		i := 0
		return Cell{Name: name, Run: func() (time.Duration, error) {
			*order = append(*order, name)
			d := script[min(i, len(script)-1)]
			i++
			return d, nil
		}}
	}
	return cell("A", a), cell("B", b)
}

func TestRunPairedOrderWarmupAndRatio(t *testing.T) {
	var order []string
	// The first two samples of each script belong to the warm-up block
	// and are absurd on purpose: they must not reach the summary.
	ms := time.Millisecond
	a, b := fakeCells(&order,
		[]time.Duration{time.Hour, time.Hour, 10 * ms, 10 * ms, 10 * ms, 30 * ms, 20 * ms, 20 * ms},
		[]time.Duration{time.Nanosecond, time.Nanosecond, 11 * ms, 13 * ms, 30 * ms, 30 * ms, 80 * ms, 40 * ms})
	var progress strings.Builder
	sum, err := RunPaired(Pair{Name: "fake", A: a, B: b, Blocks: 3, Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up, then A B B A, then B A A B, then A B B A again.
	if got, want := strings.Join(order[4:], ""), "ABBA"+"BAAB"+"ABBA"; got != want {
		t.Errorf("measured order = %s, want %s", got, want)
	}
	if len(order) != 16 {
		t.Errorf("ran %d cells, want 4 warm-up + 12 measured", len(order))
	}
	if sum.Blocks != 3 || len(sum.A) != 6 || len(sum.B) != 6 {
		t.Fatalf("blocks=%d len(A)=%d len(B)=%d, want 3, 6, 6", sum.Blocks, len(sum.A), len(sum.B))
	}
	if sum.FastestA != 10*ms || sum.FastestB != 11*ms {
		t.Errorf("fastest = %v / %v, want 10ms / 11ms", sum.FastestA, sum.FastestB)
	}
	// Block ratios: 24/20 = 1.2, 60/40 = 1.5, 120/40 = 3.0; median 1.5.
	if sum.Ratio != 1.5 {
		t.Errorf("ratio = %v, want 1.5", sum.Ratio)
	}
	if line := progress.String(); !strings.Contains(line, "fake") || !strings.Contains(line, "ratio=1.500") {
		t.Errorf("progress line = %q", line)
	}
}

func TestRunPairedStopsOnCellError(t *testing.T) {
	boom := errors.New("boom")
	for _, failing := range []string{"A", "B"} {
		runs, failed := 0, false
		cell := func(name string) Cell {
			return Cell{Name: name, Run: func() (time.Duration, error) {
				if failed {
					t.Errorf("%s failing: cell %s ran after the error", failing, name)
				}
				runs++
				if name == failing && runs > 5 { // past the warm-up block
					failed = true
					return 0, boom
				}
				return time.Millisecond, nil
			}}
		}
		_, err := RunPaired(Pair{Name: "exp", A: cell("A"), B: cell("B"), Blocks: 4})
		if !errors.Is(err, boom) {
			t.Fatalf("%s failing: err = %v, want boom", failing, err)
		}
		if !strings.Contains(err.Error(), "exp: "+failing+": ") {
			t.Errorf("error %q does not name the pair and cell %s", err, failing)
		}
	}
}

func TestRunPairedMinTotalRaisesBlocks(t *testing.T) {
	var order []string
	a, b := fakeCells(&order, []time.Duration{10 * time.Millisecond}, []time.Duration{10 * time.Millisecond})
	// The warm-up block's two A samples sum to 20ms, so 100ms needs 5 blocks.
	sum, err := RunPaired(Pair{Name: "short", A: a, B: b, Blocks: 2, MinTotal: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Blocks != 5 || len(sum.A) != 10 {
		t.Errorf("blocks = %d (%d samples), want 5 (10)", sum.Blocks, len(sum.A))
	}
	// And never past the cap, however short the cell.
	a, b = fakeCells(&order, []time.Duration{time.Microsecond}, []time.Duration{time.Microsecond})
	if sum, _ = RunPaired(Pair{Name: "tiny", A: a, B: b, Blocks: 2, MinTotal: time.Second}); sum.Blocks != maxBlocks {
		t.Errorf("blocks = %d, want the cap %d", sum.Blocks, maxBlocks)
	}
}

func TestMedianBlockRatioEdgeCases(t *testing.T) {
	if r := medianBlockRatio(nil, nil); r != 1 {
		t.Errorf("empty ratio = %v, want 1", r)
	}
	ms := time.Millisecond
	if r := medianBlockRatio([]time.Duration{ms, ms, 2 * ms, 2 * ms}, []time.Duration{2 * ms, 2 * ms, 8 * ms, 8 * ms}); r != 3 {
		t.Errorf("even-count median = %v, want (2+4)/2", r)
	}
}
