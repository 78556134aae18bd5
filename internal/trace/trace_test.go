package trace

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

func sampleVertexCapture() *VertexCapture {
	return &VertexCapture{
		Superstep:   41,
		Worker:      2,
		ID:          672,
		Reasons:     ReasonByID | ReasonMessageConstraint,
		ValueBefore: pregel.NewText("TENTATIVELY_IN_SET"),
		ValueAfter:  pregel.NewText("IN_SET"),
		Edges: []pregel.Edge{
			{Target: 671},
			{Target: 673, Value: pregel.NewDouble(1.5)},
		},
		EdgesPreCompute: true,
		Incoming:        []pregel.Value{pregel.NewLong(671), pregel.NewLong(673)},
		Outgoing: []OutMsg{
			{To: 671, Value: pregel.NewShort(-3)},
		},
		HaltedAfter: true,
		Violations: []Violation{
			{Kind: MessageViolation, SrcID: 672, DstID: 671, Value: pregel.NewShort(-3)},
		},
		Exception: &ExceptionInfo{Message: "boom", Stack: "stack trace here"},
	}
}

func sampleMasterCapture() *MasterCapture {
	return &MasterCapture{
		Superstep:   41,
		NumVertices: 1_000_000_000,
		NumEdges:    3_000_000_000,
		AggregatedBefore: map[string]pregel.Value{
			"phase": pregel.NewText("SELECTION"),
		},
		AggregatedAfter: map[string]pregel.Value{
			"phase": pregel.NewText("CONFLICT-RESOLUTION"),
		},
		Sets:   []AggSet{{Name: "phase", Value: pregel.NewText("CONFLICT-RESOLUTION")}},
		Halted: false,
	}
}

func sampleMeta() *SuperstepMeta {
	return &SuperstepMeta{
		Superstep:   41,
		NumVertices: 10,
		NumEdges:    20,
		Aggregated: map[string]pregel.Value{
			"phase": pregel.NewText("CONFLICT-RESOLUTION"),
			"count": pregel.NewLong(7),
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	fs := dfs.NewMemFS()
	f, err := fs.Create("f.trace")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSuperstepMeta(sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteVertexCapture(sampleVertexCapture()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMasterCapture(sampleMasterCapture()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := dfs.ReadFile(fs, "f.trace")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRecordReader(raw)
	if err != nil {
		t.Fatal(err)
	}

	rec1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	meta := rec1.(*SuperstepMeta)
	if meta.Superstep != 41 || meta.NumVertices != 10 || meta.NumEdges != 20 {
		t.Errorf("meta = %+v", meta)
	}
	if !pregel.ValuesEqual(meta.Aggregated["count"], pregel.NewLong(7)) {
		t.Error("meta aggregated mismatch")
	}

	rec2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	vc := rec2.(*VertexCapture)
	want := sampleVertexCapture()
	if vc.Superstep != want.Superstep || vc.Worker != want.Worker || vc.ID != want.ID {
		t.Errorf("identity fields: %+v", vc)
	}
	if vc.Reasons != want.Reasons {
		t.Errorf("reasons = %v", vc.Reasons)
	}
	if !pregel.ValuesEqual(vc.ValueBefore, want.ValueBefore) ||
		!pregel.ValuesEqual(vc.ValueAfter, want.ValueAfter) {
		t.Error("values mismatch")
	}
	if len(vc.Edges) != 2 || vc.Edges[0].Value != nil ||
		!pregel.ValuesEqual(vc.Edges[1].Value, pregel.NewDouble(1.5)) {
		t.Errorf("edges = %+v", vc.Edges)
	}
	if !vc.EdgesPreCompute || !vc.HaltedAfter {
		t.Error("flags lost")
	}
	if len(vc.Incoming) != 2 || len(vc.Outgoing) != 1 {
		t.Error("message lists lost")
	}
	if len(vc.Violations) != 1 || vc.Violations[0].DstID != 671 {
		t.Errorf("violations = %+v", vc.Violations)
	}
	if vc.Exception == nil || vc.Exception.Message != "boom" || vc.Exception.Stack == "" {
		t.Errorf("exception = %+v", vc.Exception)
	}

	rec3, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	mc := rec3.(*MasterCapture)
	if mc.NumVertices != 1_000_000_000 {
		t.Errorf("master numV = %d", mc.NumVertices)
	}
	if got := mc.AggregatedBefore["phase"].(*pregel.TextValue).Get(); got != "SELECTION" {
		t.Errorf("before phase = %q", got)
	}
	if len(mc.Sets) != 1 || mc.Sets[0].Name != "phase" {
		t.Errorf("sets = %+v", mc.Sets)
	}

	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewRecordReader([]byte("NOTATRACE")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewRecordReader([]byte("GR")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short file err = %v", err)
	}
}

func TestReaderRejectsCorruptRecord(t *testing.T) {
	fs := dfs.NewMemFS()
	f, _ := fs.Create("f.trace")
	w, _ := NewWriter(f)
	if err := w.WriteSuperstepMeta(sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := dfs.ReadFile(fs, "f.trace")
	raw = raw[:len(raw)-3] // truncate mid-record
	r, err := NewRecordReader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("expected corrupt error, got %v", err)
	}
}

// writeJob writes one trace through a Sink — the metas on the master
// lane, each capture on its Worker's lane, then the result — and opens
// it.
func writeJob(t *testing.T, store *Store, meta JobMeta, metas []*SuperstepMeta, captures []*VertexCapture, res JobResult) *Reader {
	t.Helper()
	sink, err := store.NewSink(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		if err := sink.MasterSink().WriteSuperstepMeta(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range captures {
		if err := sink.WorkerSink(c.Worker).WriteVertexCapture(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(res); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader(meta.JobID)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStoreLayoutAndDB(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "graft/traces")
	meta := sampleMeta()
	meta.Superstep = 0
	c1 := sampleVertexCapture()
	c1.Superstep, c1.ID, c1.Worker = 0, 1, 0
	c2 := sampleVertexCapture()
	c2.Superstep, c2.ID, c2.Worker = 0, 2, 1
	c2.Exception = nil
	c2.Violations = nil
	r := writeJob(t, store,
		JobMeta{JobID: "job1", Algorithm: "gc", NumWorkers: 2, NumVertices: 4, NumEdges: 6},
		[]*SuperstepMeta{meta}, []*VertexCapture{c1, c2},
		JobResult{Supersteps: 1, Reason: "converged", Captures: 2})

	// Layout check: one segment and one index part per lane that wrote.
	names, _ := fs.List("graft/traces/job1/")
	wantFiles := []string{
		"graft/traces/job1/job.done",
		"graft/traces/job1/job.meta",
		"graft/traces/job1/master/idx_000000.idx",
		"graft/traces/job1/master/seg_000000.seg",
		"graft/traces/job1/worker_00/idx_000000.idx",
		"graft/traces/job1/worker_00/seg_000000.seg",
		"graft/traces/job1/worker_01/idx_000000.idx",
		"graft/traces/job1/worker_01/seg_000000.seg",
	}
	if !reflect.DeepEqual(names, wantFiles) {
		t.Fatalf("files = %v, want %v", names, wantFiles)
	}

	jobs, err := store.ListJobs()
	if err != nil || len(jobs) != 1 || jobs[0] != "job1" {
		t.Fatalf("jobs = %v, %v", jobs, err)
	}

	if got := r.JobMeta(); got.Algorithm != "gc" || got.NumWorkers != 2 {
		t.Errorf("meta = %+v", got)
	}
	if res := r.JobResult(); res == nil || res.Captures != 2 {
		t.Errorf("result = %+v", res)
	}
	if r.TotalCaptures() != 2 {
		t.Errorf("captures = %d", r.TotalCaptures())
	}
	caps := r.CapturesAt(0)
	if len(caps) != 2 || caps[0].ID != 1 || caps[1].ID != 2 {
		t.Errorf("captures at 0 = %+v", caps)
	}
	if got := r.CapturesOf(1); len(got) != 1 {
		t.Errorf("CapturesOf(1) = %d", len(got))
	}
	if r.MaxSuperstep() != 0 {
		t.Errorf("max superstep = %d", r.MaxSuperstep())
	}
	st := r.StatusAt(0)
	if !st.MessageViolation || !st.Exception || st.VertexViolation {
		t.Errorf("status = %+v", st)
	}
	// One row per violation plus one for the exception, all on vertex 1.
	rows := r.ViolationsAt(0)
	if want := len(c1.Violations) + 1; len(rows) != want || len(r.AllViolations()) != want {
		t.Errorf("violation rows = %d at superstep 0, %d overall, want %d", len(rows), len(r.AllViolations()), want)
	}
	for _, row := range rows {
		if row.VertexID != 1 || row.Superstep != 0 {
			t.Errorf("violation row = %+v, want vertex 1 at superstep 0", row)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}

	if err := store.RemoveJob("job1"); err != nil {
		t.Fatal(err)
	}
	if jobs, _ := store.ListJobs(); len(jobs) != 0 {
		t.Errorf("jobs after remove = %v", jobs)
	}
}

func TestReadResultUnfinished(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	sink, err := store.NewSink(JobMeta{JobID: "x", NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.CloseFiles()
	_, done, err := store.ReadResult("x")
	if err != nil || done {
		t.Fatalf("unfinished job: done=%v err=%v", done, err)
	}
}

func TestSearchQueries(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	mk := func(superstep int, id pregel.VertexID, val string, edgeTo pregel.VertexID, outVal string) *VertexCapture {
		return &VertexCapture{
			Superstep:  superstep,
			ID:         id,
			ValueAfter: pregel.NewText(val),
			Edges:      []pregel.Edge{{Target: edgeTo}},
			Outgoing:   []OutMsg{{To: edgeTo, Value: pregel.NewText(outVal)}},
		}
	}
	r := writeJob(t, store, JobMeta{JobID: "q", Algorithm: "x", NumWorkers: 1},
		[]*SuperstepMeta{{Superstep: 0}, {Superstep: 1}},
		[]*VertexCapture{
			mk(0, 1, "RED", 2, "hello"),
			mk(0, 2, "BLUE", 3, "world"),
			mk(1, 1, "GREEN", 2, "hello again"),
		}, JobResult{})

	id1 := pregel.VertexID(1)
	nbr2 := pregel.VertexID(2)
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{Superstep: -1}, 3},
		{"superstep 0", Query{Superstep: 0}, 2},
		{"by vertex", Query{Superstep: -1, VertexID: &id1}, 2},
		{"by neighbor", Query{Superstep: -1, NeighborID: &nbr2}, 2},
		{"by value", Query{Superstep: -1, ValueContains: "BLUE"}, 1},
		{"by message", Query{Superstep: -1, MessageContains: "hello"}, 2},
		{"combined", Query{Superstep: 1, VertexID: &id1, MessageContains: "again"}, 1},
		{"no match", Query{Superstep: -1, ValueContains: "PURPLE"}, 0},
	}
	for _, c := range cases {
		if got := len(r.Search(c.q)); got != c.want {
			t.Errorf("%s: got %d matches, want %d", c.name, got, c.want)
		}
	}
}

// TestReaderRejectsCorruptSegment truncates a segment mid-record and
// then replaces it with garbage. The index still names the records, so
// the job opens; the damage surfaces from the nil-on-missing accessors
// through Err, from Verify, and — once the index is gone and the
// segment has to be scanned — from OpenReader itself.
func TestReaderRejectsCorruptSegment(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	c := sampleVertexCapture()
	c.Worker = 0
	writeJob(t, store, JobMeta{JobID: "bad", Algorithm: "x", NumWorkers: 1},
		nil, []*VertexCapture{c}, JobResult{})
	const seg = "t/bad/worker_00/seg_000000.seg"
	raw, err := dfs.ReadFile(fs, seg)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Reader {
		t.Helper()
		r, err := store.OpenReader("bad")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	if err := dfs.WriteFile(fs, seg, raw[:len(raw)-5]); err != nil {
		t.Fatal(err)
	}
	r := open()
	if caps := r.CapturesAt(c.Superstep); len(caps) != 0 || r.Err() == nil {
		t.Errorf("truncated segment served %d captures, Err() = %v", len(caps), r.Err())
	}
	if err := r.Verify(); err == nil {
		t.Error("Verify accepted a truncated segment")
	}

	// And a file that is not a segment at all.
	if err := dfs.WriteFile(fs, seg, []byte("garbage!")); err != nil {
		t.Fatal(err)
	}
	r = open()
	if got := r.Capture(c.Superstep, c.ID); got != nil || !errors.Is(r.Err(), ErrBadMagic) {
		t.Errorf("garbage segment: capture = %v, Err() = %v, want nil and bad magic", got, r.Err())
	}
	if err := r.Verify(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("Verify on a garbage segment: %v, want bad magic", err)
	}
	if err := fs.Remove("t/bad/worker_00/idx_000000.idx"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenReader("bad"); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenReader scanning a garbage segment: err = %v, want bad magic", err)
	}
}

func TestOpenReaderMissingJob(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	if _, err := store.OpenReader("ghost"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("missing job: err = %v, want not-exist", err)
	}
}

// TestOpenReaderRejectsLegacyLayout hand-writes the manifest an older
// build's whole-file writer left (no format field) and one naming a
// format this build does not know: both are refused by name, not read.
func TestOpenReaderRejectsLegacyLayout(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	for jobID, manifest := range map[string]string{
		"old":    `{"job_id": "old", "algorithm": "sp", "num_workers": 1, "num_vertices": 4, "num_edges": 6}`,
		"future": `{"job_id": "future", "algorithm": "sp", "num_workers": 1, "format": "columns/v9"}`,
	} {
		if err := dfs.WriteFile(fs, "t/"+jobID+"/job.meta", []byte(manifest)); err != nil {
			t.Fatal(err)
		}
		if err := dfs.WriteFile(fs, "t/"+jobID+"/worker_00.trace", []byte(fileMagic)); err != nil {
			t.Fatal(err)
		}
		_, err := store.OpenReader(jobID)
		if !errors.Is(err, ErrUnsupportedLayout) {
			t.Fatalf("%s: err = %v, want ErrUnsupportedLayout", jobID, err)
		}
		if !strings.Contains(err.Error(), `"`+jobID+`"`) {
			t.Errorf("%s: error %q does not name the job", jobID, err)
		}
	}
	_, err := store.OpenReader("old")
	if !strings.Contains(err.Error(), ".trace") {
		t.Errorf("error %q does not name the whole-file layout", err)
	}
	_, err = store.OpenReader("future")
	if !strings.Contains(err.Error(), "columns/v9") {
		t.Errorf("error %q does not name the unknown format", err)
	}
}

func TestCheckAdjacentPairsDirect(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	mk := func(id pregel.VertexID, color int64, edges ...pregel.VertexID) *VertexCapture {
		c := &VertexCapture{Superstep: 0, ID: id, ValueAfter: pregel.NewLong(color)}
		for _, e := range edges {
			c.Edges = append(c.Edges, pregel.Edge{Target: e})
		}
		return c
	}
	// 1-2 same color (violation), 2-3 different (ok), 1-9 where 9 is
	// uncaptured (skipped).
	r := writeJob(t, store, JobMeta{JobID: "pairs", Algorithm: "x", NumWorkers: 1},
		[]*SuperstepMeta{{Superstep: 0}},
		[]*VertexCapture{mk(1, 5, 2, 9), mk(2, 5, 1, 3), mk(3, 6, 2)}, JobResult{})
	got := CheckAdjacentPairs(r, func(a, b *VertexCapture) bool {
		return !pregel.ValuesEqual(a.ValueAfter, b.ValueAfter)
	})
	if len(got) != 1 || got[0].A.ID != 1 || got[0].B.ID != 2 {
		t.Fatalf("pairs = %+v", got)
	}
}

func TestReasonString(t *testing.T) {
	r := ReasonByID | ReasonException
	if got := r.String(); got != "by-id+exception" {
		t.Errorf("Reason string = %q", got)
	}
	if Reason(0).String() != "none" {
		t.Error("zero reason string")
	}
	if !r.Has(ReasonByID) || r.Has(ReasonRandom) {
		t.Error("Has wrong")
	}
}

// TestNondeterministicFlagIsInTheDigest: the verdict a recording re-run
// attaches to a capture is a new bit above the eight reasons — no
// existing record's bytes change — and two traces that differ only in
// it do not digest alike.
func TestNondeterministicFlagIsInTheDigest(t *testing.T) {
	if ReasonNondeterministic != 1<<8 {
		t.Fatalf("ReasonNondeterministic = %#x: a stored bit moved", uint32(ReasonNondeterministic))
	}
	if got := (ReasonVertexConstraint | ReasonNondeterministic).String(); got != "vertex-constraint+nondeterministic" {
		t.Errorf("Reason string = %q", got)
	}
	digest := func(extra Reason) string {
		c := sampleVertexCapture()
		c.Superstep, c.Worker = 0, 0
		c.Reasons |= extra
		meta := sampleMeta()
		meta.Superstep = 0
		return Digest(writeJob(t, NewStore(dfs.NewMemFS(), "t"), JobMeta{JobID: "j", NumWorkers: 1},
			[]*SuperstepMeta{meta}, []*VertexCapture{c}, JobResult{Supersteps: 1, Captures: 1}))
	}
	if digest(0) != digest(0) || digest(0) == digest(ReasonNondeterministic) {
		t.Error("the digest must separate a flagged capture from the same capture unflagged, and nothing else")
	}
}
