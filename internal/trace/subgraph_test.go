package trace

import (
	"io"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

func sampleSubgraphCapture() *SubgraphCapture {
	return &SubgraphCapture{
		Superstep:    7,
		Worker:       2,
		ID:           11,
		Members:      []pregel.VertexID{11, 40, 312},
		Iterations:   19,
		MessagesSent: 5,
		HaltedAfter:  true,
		Digest:       "0ff1ce0ff1ce",
	}
}

func TestSubgraphCaptureRoundTrip(t *testing.T) {
	fs := dfs.NewMemFS()
	f, err := fs.Create("sg.trace")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleSubgraphCapture()
	if err := w.WriteSubgraphCapture(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := dfs.ReadFile(fs, "sg.trace")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecordReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := rec.(*SubgraphCapture)
	if !ok {
		t.Fatalf("decoded %T, want *SubgraphCapture", rec)
	}
	if sc.Superstep != want.Superstep || sc.Worker != want.Worker || sc.ID != want.ID {
		t.Errorf("identity fields: %+v", sc)
	}
	if len(sc.Members) != 3 || sc.Members[0] != 11 || sc.Members[2] != 312 {
		t.Errorf("members = %v", sc.Members)
	}
	if sc.Iterations != 19 || sc.MessagesSent != 5 {
		t.Errorf("counters = %d/%d", sc.Iterations, sc.MessagesSent)
	}
	if !sc.HaltedAfter || sc.Digest != want.Digest {
		t.Errorf("halted=%v digest=%q", sc.HaltedAfter, sc.Digest)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestFindMemberSubgraph exercises the member-to-component lookup
// behind Reader.SubgraphAt.
func TestFindMemberSubgraph(t *testing.T) {
	caps := []*SubgraphCapture{
		{ID: 1, Members: []pregel.VertexID{1, 2, 3}},
		{ID: 9, Members: []pregel.VertexID{9}},
	}
	if got := findMemberSubgraph(caps, 2); got == nil || got.ID != 1 {
		t.Errorf("member 2 resolved to %+v", got)
	}
	if got := findMemberSubgraph(caps, 9); got == nil || got.ID != 9 {
		t.Errorf("member 9 resolved to %+v", got)
	}
	if got := findMemberSubgraph(caps, 42); got != nil {
		t.Errorf("member 42 resolved to %+v, want nil", got)
	}
}
