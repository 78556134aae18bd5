package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// writeWideJob writes supersteps 0..2 of perStep captures each over
// four worker lanes, hash-placed so that the lanes interleave in ID
// order, into segments of about 16 KiB: a superstep of several runs and
// many segments, wide enough for four decode chunks.
func writeWideJob(t *testing.T, store *Store, perStep int) {
	t.Helper()
	const workers = 4
	sink, err := store.newSink(JobMeta{JobID: "job", NumWorkers: workers}, 16<<10, laneBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3; step++ {
		for id := 0; id < perStep; id++ {
			c := sampleVertexCapture()
			c.Superstep, c.Worker, c.ID = step, id%workers, pregel.VertexID(id)
			c.ValueAfter = pregel.NewLong(rng.Int63n(1000))
			if id%7 == 0 {
				c.Violations, c.Exception = nil, nil
			}
			if err := sink.WorkerSink(id % workers).WriteVertexCapture(c); err != nil {
				t.Fatal(err)
			}
		}
		meta := sampleMeta()
		meta.Superstep = step
		if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
			t.Fatal(err)
		}
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: 3}); err != nil {
		t.Fatal(err)
	}
}

// withGOMAXPROCS runs fn with GOMAXPROCS set to n.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestCapturesAtIndependentOfGOMAXPROCS: a superstep of 4,400 captures
// decodes in one chunk at GOMAXPROCS 1 and in four at GOMAXPROCS 4, and
// the captures, the status and the digest are the same. With one record
// corrupted in each of two chunks, Err names the earlier one at both
// settings, as a walk in ID order would, and no status is kept.
func TestCapturesAtIndependentOfGOMAXPROCS(t *testing.T) {
	const perStep = 4400
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeWideJob(t, store, perStep)

	type view struct {
		caps   [][]*VertexCapture
		status []Status
		digest string
	}
	read := func(procs int) (v view, r *Reader) {
		withGOMAXPROCS(procs, func() {
			var err error
			if r, err = store.OpenReader("job"); err != nil {
				t.Fatal(err)
			}
			for _, s := range r.Supersteps() {
				v.caps = append(v.caps, r.CapturesAt(s))
				v.status = append(v.status, r.StatusAt(s))
			}
			v.digest = Digest(r)
		})
		return v, r
	}
	one, r1 := read(1)
	four, _ := read(4)
	if err := r1.Err(); err != nil {
		t.Fatal(err)
	}
	if len(r1.segOrder) < 12 {
		t.Fatalf("only %d segments; the check needs several per lane", len(r1.segOrder))
	}
	for s, caps := range one.caps {
		if len(caps) != perStep {
			t.Fatalf("superstep %d: %d captures, want %d", s, len(caps), perStep)
		}
		for i, c := range caps {
			if c.ID != pregel.VertexID(i) || c.Superstep != s {
				t.Fatalf("superstep %d: capture %d is (%d, %d)", s, i, c.Superstep, c.ID)
			}
		}
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatal("CapturesAt, StatusAt or Digest differ between GOMAXPROCS 1 and 4")
	}
	// The slab a chunk cuts its captures from is not shared through
	// append: growing one capture's slices leaves its neighbour's alone.
	a, b := four.caps[0][0], four.caps[0][1]
	wantB := *b
	wantB.Edges, wantB.Incoming = slices.Clone(b.Edges), slices.Clone(b.Incoming)
	wantB.Outgoing, wantB.Violations = slices.Clone(b.Outgoing), slices.Clone(b.Violations)
	a.Edges = append(a.Edges, pregel.Edge{Target: -1})
	a.Incoming = append(a.Incoming, pregel.NewLong(-1))
	a.Outgoing = append(a.Outgoing, OutMsg{To: -1})
	a.Violations = append(a.Violations, Violation{SrcID: -1})
	if !reflect.DeepEqual(*b, wantB) {
		t.Fatal("appending to one capture's slices changed the next capture")
	}

	// Corrupt the kind byte of one record in the first chunk and one in
	// the third, in different segments.
	ents := r1.vertexLoc[1].sorted()
	early, late := ents[perStep/8], ents[perStep*5/8]
	for i := perStep * 5 / 8; late.seg == early.seg; i++ {
		late = ents[i]
	}
	for _, loc := range []recordLoc{late, early} {
		path := "t/job/" + r1.segOrder[loc.seg]
		raw, err := dfs.ReadFile(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		raw[loc.off] = 0x7f
		if err := dfs.WriteFile(fs, path, raw); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			r, err := store.OpenReader("job")
			if err != nil {
				t.Fatal(err)
			}
			if n := len(r.CapturesAt(1)); n != perStep-2 {
				t.Errorf("GOMAXPROCS %d: %d captures decoded, want %d", procs, n, perStep-2)
			}
			err = r.Err()
			want := fmt.Sprintf("trace: %s: trace: unknown record kind 127", r.segOrder[early.seg])
			if err == nil || err.Error() != want {
				t.Errorf("GOMAXPROCS %d: Err() = %v, want %q", procs, err, want)
			}
			if _, kept := r.status[1]; kept {
				t.Errorf("GOMAXPROCS %d: a pass with failed records kept a status", procs)
			}
		})
	}
}

// TestSearchMatchesFilteredScan: over small random traces and random
// queries — with and without a vertex, a superstep, a neighbour or a
// value or message substring — Search returns exactly the captures a
// filter of CapturesAt over the supersteps asked for keeps, in order,
// whether it read them by key or by scan.
func TestSearchMatchesFilteredScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := NewStore(dfs.NewMemFS(), "t")
		steps, ids := writeRandomJob(t, store, "job", rng, false)
		r, err := store.OpenReader("job")
		if err != nil {
			t.Fatal(err)
		}
		pick := func() *pregel.VertexID {
			if rng.Intn(2) == 0 {
				return nil
			}
			id := pregel.VertexID(rng.Intn(ids+2) - 1)
			return &id
		}
		for range 30 {
			q := Query{Superstep: rng.Intn(steps+2) - 1, VertexID: pick()}
			if rng.Intn(3) == 0 {
				q.NeighborID = pick()
			}
			if rng.Intn(3) == 0 {
				q.ValueContains = fmt.Sprint(rng.Intn(10))
			}
			if rng.Intn(4) == 0 {
				q.MessageContains = []string{"67", "-3", "x"}[rng.Intn(3)]
			}
			steps := r.Supersteps()
			if q.Superstep >= 0 {
				steps = []int{q.Superstep}
			}
			var want []*VertexCapture
			for _, s := range steps {
				for _, c := range r.CapturesAt(s) {
					if q.matches(c) {
						want = append(want, c)
					}
				}
			}
			if got := r.Search(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Search(%+v) returned %d captures, want %d", seed, q, len(got), len(want))
			}
		}
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchByVertexReadsByKey: a one-vertex search reads that
// vertex's records by key, one ranged read each, and fetches no whole
// segment.
func TestSearchByVertexReadsByKey(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	writeWideJob(t, store, 1200)
	r, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	id := pregel.VertexID(777)
	got := r.Search(Query{Superstep: -1, VertexID: &id})
	if len(got) != 3 || r.SegmentReads() != 0 {
		t.Fatalf("Search for vertex %d: %d captures and %d whole segments read, want 3 and 0", id, len(got), r.SegmentReads())
	}
	for s, c := range got {
		if c.ID != id || c.Superstep != s {
			t.Errorf("result %d is (%d, %d)", s, c.Superstep, c.ID)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
