package pregel

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestIDTableMatchesMap drives idTable and a map oracle through the
// same random sets, overwrites, deletes and lookups, over dense hits,
// IDs just outside the dense range, map-only tables and the neighbours
// of math.MinInt64 and math.MaxInt64, where id-base wraps around; and
// holds lookup to zero allocations on both representations.
func TestIDTableMatchesMap(t *testing.T) {
	near := func(ends ...VertexID) []VertexID {
		var ids []VertexID
		for _, e := range ends {
			for d := VertexID(-6); d <= 6; d++ {
				ids = append(ids, e+d) // wraps past the int64 ends on purpose
			}
		}
		return ids
	}
	span := func(lo, hi VertexID) []VertexID {
		var ids []VertexID
		for id := lo; ; id++ {
			ids = append(ids, id)
			if id == hi {
				return ids
			}
		}
	}
	cases := []struct {
		name   string
		lo, hi VertexID
		n      int
		dense  bool
		ids    []VertexID // the IDs the operations draw from
	}{
		{"dense-hits", -40, 200, 241, true, span(-40, 200)},
		{"dense-overflow", 100, 139, 40, true, append(span(90, 150), 1<<40, -1<<40)},
		{"rule-edge-dense", 0, 39, 10, true, span(-5, 45)},
		{"rule-edge-map", 0, 40, 10, false, span(-5, 45)},
		{"map-only-scattered", -1 << 40, 1 << 40, 24, false, near(-1<<40, 0, 1<<40)},
		{"map-only-full-range", math.MinInt64, math.MaxInt64, 100, false, near(math.MinInt64, math.MaxInt64)},
		{"dense-at-max", math.MaxInt64 - 20, math.MaxInt64, 21, true, near(math.MaxInt64-20, math.MaxInt64)},
		{"dense-at-min", math.MinInt64, math.MinInt64 + 20, 21, true, near(math.MinInt64, math.MinInt64+20)},
		{"empty-range", 0, 0, 0, false, span(-3, 3)},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				tbl := newIDTable(tc.lo, tc.hi, tc.n)
				if dense := tbl.dense != nil; dense != tc.dense {
					t.Fatalf("newIDTable(%d, %d, %d) dense = %v, want %v", tc.lo, tc.hi, tc.n, dense, tc.dense)
				}
				want := map[VertexID]int{}
				for op := 0; op < 2000; op++ {
					id := tc.ids[rng.Intn(len(tc.ids))]
					switch r := rng.Intn(10); {
					case r < 5:
						v := rng.Intn(1 << 20)
						tbl.set(id, v)
						want[id] = v
					case r < 7:
						tbl.delete(id)
						delete(want, id)
					}
					got, ok := tbl.lookup(id)
					if w, wok := want[id]; ok != wok || ok && got != w {
						t.Fatalf("op %d: lookup(%d) = %d,%v; want %d,%v", op, id, got, ok, w, wok)
					}
					if tbl.len() != len(want) {
						t.Fatalf("op %d: len = %d, want %d", op, tbl.len(), len(want))
					}
				}
				for _, id := range tc.ids {
					got, ok := tbl.lookup(id)
					if w, wok := want[id]; ok != wok || ok && got != w {
						t.Fatalf("lookup(%d) = %d,%v; want %d,%v", id, got, ok, w, wok)
					}
				}
				// The send and delivery hot paths look up once per message.
				var sink int
				if allocs := testing.AllocsPerRun(10, func() {
					for _, id := range tc.ids {
						v, _ := tbl.lookup(id)
						sink += v
					}
				}); allocs != 0 {
					t.Fatalf("lookup allocated %.1f times per run, want 0", allocs)
				}
				ids, vals := tbl.pairs()
				if wantIDs := slices.Sorted(maps.Keys(want)); !slices.Equal(ids, wantIDs) {
					t.Fatalf("pairs IDs = %v, want %v", ids, wantIDs)
				}
				for i, id := range ids {
					if vals[i] != want[id] {
						t.Fatalf("pairs value of %d = %d, want %d", id, vals[i], want[id])
					}
				}
			})
		}
	}
	if (*idTable)(nil).len() != 0 {
		t.Fatal("nil table has entries")
	}
}
