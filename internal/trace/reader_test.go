package trace

import (
	"cmp"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// TestStepIndexMergeMatchesStableSort: whatever runs a superstep's
// entries arrive in — none, one, two lanes' worth, many, or every
// entry its own run — sorted() returns what a stable sort by ID with
// the last entry of each ID kept returns. IDs repeat across runs, and
// each entry's offset is its arrival number, so a wrong winner shows.
func TestStepIndexMergeMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runs := []int{0, 1, 2, 3 + rng.Intn(20)}[seed%4]
		var ents []recordLoc
		for range runs {
			id := pregel.VertexID(rng.Intn(4))
			for n := rng.Intn(30); n > 0; n-- {
				ents = append(ents, recordLoc{id: id, off: int64(len(ents))})
				id += 1 + pregel.VertexID(rng.Intn(3))
			}
		}
		if seed%10 == 9 { // descending: every entry a run of one
			slices.Reverse(ents)
		}
		want := slices.Clone(ents)
		slices.SortStableFunc(want, func(a, b recordLoc) int { return cmp.Compare(a.id, b.id) })
		want = lastOfEachID(want)

		x := &stepIndex{}
		for _, e := range ents {
			x.add(e)
		}
		merged := len(x.runs) + 1
		if got := x.sorted(); !slices.Equal(got, want) {
			t.Fatalf("seed %d (%d runs, %d entries): sorted() = %v, want %v", seed, merged, len(ents), got, want)
		}
	}
}

func lastOfEachID(sorted []recordLoc) []recordLoc {
	var out []recordLoc
	for i, e := range sorted {
		if i+1 == len(sorted) || sorted[i+1].id != e.id {
			out = append(out, e)
		}
	}
	return out
}

// add files one entry as a piece of its own, so that every entry
// arrives the way a segment's first entry does.
func (x *stepIndex) add(loc recordLoc) { x.addRun([]recordLoc{loc}) }

// failSegFS fails every Open of the path in fail, while it is set.
type failSegFS struct {
	dfs.FileSystem
	fail string
}

var errSegmentGone = errors.New("segment unreachable")

func (f *failSegFS) Open(path string) (io.ReadCloser, error) {
	if path == f.fail {
		return nil, errSegmentGone
	}
	return f.FileSystem.Open(path)
}

// TestReaderStatusMemoSkipsFailedPass: a CapturesAt pass that could not
// read one of the superstep's segments keeps no status, so once the
// store heals StatusAt is the status of every capture, not of the ones
// the failed pass saw.
func TestReaderStatusMemoSkipsFailedPass(t *testing.T) {
	fs := &failSegFS{FileSystem: dfs.NewMemFS()}
	store := NewStore(fs, "t")
	writeRandomJob(t, store, "job", rand.New(rand.NewSource(7)), false)
	r, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	step := r.vertexSteps[0]
	ents := r.vertexLoc[step].sorted()
	fs.fail = "t/job/" + r.segOrder[ents[len(ents)-1].seg]

	if got := r.CapturesAt(step); len(got) >= len(ents) {
		t.Fatalf("CapturesAt(%d) read %d of %d captures through a failing store", step, len(got), len(ents))
	}
	if !errors.Is(r.Err(), errSegmentGone) {
		t.Fatalf("Err = %v, want the segment read failure", r.Err())
	}
	r.mu.Lock()
	_, kept := r.status[step]
	r.mu.Unlock()
	if kept {
		t.Fatal("a pass that missed captures kept a status")
	}

	fs.fail = ""
	st := r.StatusAt(step)
	all := r.CapturesAt(step)
	if len(all) != len(ents) {
		t.Fatalf("healed CapturesAt(%d) = %d captures, want %d", step, len(all), len(ents))
	}
	if want := StatusOf(all); st != want {
		t.Errorf("StatusAt(%d) after healing = %+v, want %+v", step, st, want)
	}
	r.mu.Lock()
	_, kept = r.status[step]
	r.mu.Unlock()
	if !kept {
		t.Error("a whole pass kept no status")
	}
}

// TestReaderStatusConcurrent runs CapturesAt and StatusAt of every
// superstep from many goroutines on one fresh Reader, so the status a
// pass keeps races with the passes and lookups reading it. Run under
// -race.
func TestReaderStatusConcurrent(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	steps, _ := writeRandomJob(t, store, "job", rand.New(rand.NewSource(11)), false)
	ref, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Status, steps)
	for s := range want {
		want[s] = StatusOf(ref.CapturesAt(s))
	}

	r, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 4 * steps {
				s := (i + g) % steps
				if g%2 == 0 {
					r.CapturesAt(s)
				}
				if got := r.StatusAt(s); got != want[s] {
					t.Errorf("goroutine %d: StatusAt(%d) = %+v, want %+v", g, s, got, want[s])
				}
			}
		}(g)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
