package trace

import (
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// buildDiffJob writes a tiny trace with the given captures.
func buildDiffJob(t *testing.T, store *Store, jobID string, captures []*VertexCapture) *Reader {
	t.Helper()
	var metas []*SuperstepMeta
	seen := map[int]bool{}
	for _, c := range captures {
		if !seen[c.Superstep] {
			seen[c.Superstep] = true
			metas = append(metas, &SuperstepMeta{Superstep: c.Superstep})
		}
	}
	return writeJob(t, store, JobMeta{JobID: jobID, Algorithm: "x", NumWorkers: 1}, metas, captures, JobResult{})
}

func cap0(superstep int, id pregel.VertexID, val int64, out ...int64) *VertexCapture {
	c := &VertexCapture{Superstep: superstep, ID: id, ValueAfter: pregel.NewLong(val)}
	for _, o := range out {
		c.Outgoing = append(c.Outgoing, OutMsg{To: pregel.VertexID(o), Value: pregel.NewLong(o)})
	}
	return c
}

func TestDiffJobs(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "d")
	a := buildDiffJob(t, store, "a", []*VertexCapture{
		cap0(0, 1, 10, 2, 3),
		cap0(0, 2, 20),
		cap0(1, 1, 11, 3, 2), // same outgoing multiset as b, different order
		cap0(2, 1, 99),       // diverges in value
		cap0(2, 7, 7),        // only in a
	})
	b := buildDiffJob(t, store, "b", []*VertexCapture{
		cap0(0, 1, 10, 2, 3),
		cap0(0, 2, 20),
		cap0(1, 1, 11, 2, 3),
		cap0(2, 1, 42),
		cap0(2, 8, 8), // only in b
	})

	diff := DiffJobs(a, b)
	if len(diff.OnlyA) != 1 || diff.OnlyA[0] != 7 {
		t.Errorf("OnlyA = %v", diff.OnlyA)
	}
	if len(diff.OnlyB) != 1 || diff.OnlyB[0] != 8 {
		t.Errorf("OnlyB = %v", diff.OnlyB)
	}
	if len(diff.Divergences) != 1 {
		t.Fatalf("divergences = %+v", diff.Divergences)
	}
	d := diff.FirstDivergence()
	if d.Superstep != 2 || d.ID != 1 {
		t.Errorf("first divergence = %+v", d)
	}
	if len(d.Fields) != 1 || d.Fields[0] != "value-after" {
		t.Errorf("fields = %v", d.Fields)
	}
}

func TestDiffJobsDetectsOutgoingAndHaltedAndException(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "d")
	ca := cap0(0, 1, 5, 2)
	ca.HaltedAfter = true
	cb := cap0(0, 1, 5, 3) // different recipient
	cb.Exception = &ExceptionInfo{Message: "boom"}
	a := buildDiffJob(t, store, "a2", []*VertexCapture{ca})
	b := buildDiffJob(t, store, "b2", []*VertexCapture{cb})
	diff := DiffJobs(a, b)
	if len(diff.Divergences) != 1 {
		t.Fatalf("divergences = %+v", diff.Divergences)
	}
	got := map[string]bool{}
	for _, f := range diff.Divergences[0].Fields {
		got[f] = true
	}
	for _, want := range []string{"halted", "outgoing", "exception"} {
		if !got[want] {
			t.Errorf("missing field %q in %v", want, diff.Divergences[0].Fields)
		}
	}
	// The exception also flips the E status for that superstep.
	if len(diff.StatusDiffs) != 1 || diff.StatusDiffs[0] != 0 {
		t.Errorf("status diffs = %v", diff.StatusDiffs)
	}
}

func TestDiffJobsIdenticalTraces(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "d")
	caps := []*VertexCapture{cap0(0, 1, 10, 2), cap0(1, 1, 11)}
	a := buildDiffJob(t, store, "same-a", caps)
	b := buildDiffJob(t, store, "same-b", caps)
	diff := DiffJobs(a, b)
	if len(diff.Divergences)+len(diff.OnlyA)+len(diff.OnlyB)+len(diff.StatusDiffs) != 0 {
		t.Errorf("identical traces diff = %+v", diff)
	}
	if diff.FirstDivergence() != nil {
		t.Error("FirstDivergence on identical traces")
	}
}
