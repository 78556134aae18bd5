package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// countFS counts the files created and the bytes written through it,
// and lets a test fail a Create.
type countFS struct {
	dfs.FileSystem
	creates, written int
	// failCreate, if non-nil, is asked before every Create.
	failCreate func(path string) error
}

type countFile struct {
	io.WriteCloser
	fs *countFS
}

func (f countFile) Write(p []byte) (int, error) {
	f.fs.written += len(p)
	return f.WriteCloser.Write(p)
}

func (c *countFS) Create(path string) (io.WriteCloser, error) {
	if c.failCreate != nil {
		if err := c.failCreate(path); err != nil {
			return nil, err
		}
	}
	wc, err := c.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	c.creates++
	return countFile{wc, c}, nil
}

// newTestLane returns the worker lane of a one-worker job "d" under
// root "t": its files are t/d/worker_00/*.
func newTestLane(t testing.TB, fs dfs.FileSystem, segmentSize, batchSize int) *sinkLane {
	t.Helper()
	js, err := NewStore(fs, "t").newSink(JobMeta{JobID: "d", NumWorkers: 1}, segmentSize, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	return &js.lanes[0]
}

// decodeIndex collects what walkIndex walks: the part's segments, each
// with its entries. Tests compare index parts through it; the Reader
// places entries as the walk decodes them and builds no such slices.
func decodeIndex(raw []byte) ([]segmentIndex, error) {
	segs := []segmentIndex{}
	err := walkIndex(raw, func(name string, _ int) {
		segs = append(segs, segmentIndex{Name: name, Entries: []indexEntry{}})
	}, func(ent indexEntry) {
		seg := &segs[len(segs)-1]
		seg.Entries = append(seg.Entries, ent)
	})
	if err != nil {
		return nil, err
	}
	return segs, nil
}

// indexOnDisk decodes every *.idx of the test lane in name order, the
// way a reader does, and returns the segments they name.
func indexOnDisk(t *testing.T, fs dfs.FileSystem) []segmentIndex {
	t.Helper()
	names, err := fs.List("t/d/")
	if err != nil {
		t.Fatal(err)
	}
	var segs []segmentIndex
	for _, name := range names {
		if strings.HasSuffix(name, ".idx") {
			segs = append(segs, readPart(t, fs, name)...)
		}
	}
	return segs
}

func readPart(t *testing.T, fs dfs.FileSystem, path string) []segmentIndex {
	t.Helper()
	raw, err := dfs.ReadFile(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := decodeIndex(raw)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return segs
}

// stepCapture is record i of a step: its ID is i, and its value's
// length varies with i.
func stepCapture(step, i int) *VertexCapture {
	return &VertexCapture{Superstep: step, ID: pregel.VertexID(i), ValueAfter: pregel.NewText(strings.Repeat("x", i%7))}
}

// appendStep submits n records of one step and flushes.
func appendStep(t testing.TB, l *sinkLane, step, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := l.submit(stepCapture(step, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPartsRoundTrip(t *testing.T) {
	fs := dfs.NewMemFS()
	l := newTestLane(t, fs, 64, 1) // several segments per flush
	var parts [][]segmentIndex
	for step := 0; step < 5; step++ {
		appendStep(t, l, step, 5+step)
		// Each flush commits the next part, naming what it sealed.
		part := readPart(t, fs, fmt.Sprintf("t/d/worker_00/idx_%06d.idx", step))
		if len(part) < 2 {
			t.Errorf("part %d names %d segments; the 64-byte threshold should force several", step, len(part))
		}
		parts = append(parts, part)
	}
	// What the reader decodes from the parts, in name order, is every
	// segment once, in seal order.
	got := indexOnDisk(t, fs)
	var want []segmentIndex
	for _, p := range parts {
		want = append(want, p...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index on disk differs from the parts in commit order:\n got %v\nwant %v", got, want)
	}
	recs := 0
	for seq, seg := range got {
		if want := fmt.Sprintf("worker_00/seg_%06d.seg", seq); seg.Name != want {
			t.Fatalf("segment %d is %q, want %q", seq, seg.Name, want)
		}
		raw, err := dfs.ReadFile(fs, "t/d/"+seg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !hasSegMagic(raw) {
			t.Fatalf("%s does not start with %s", seg.Name, segMagic)
		}
		for _, ent := range seg.Entries {
			want := encodePayload(t, stepCapture(ent.Step, int(ent.ID)))
			if got := raw[ent.Offset : ent.Offset+ent.Length]; !bytes.Equal(got, want) {
				t.Fatalf("%s: entry %+v locates %q, want %q", seg.Name, ent, got, want)
			}
			recs++
		}
	}
	if recs != 5+6+7+8+9 {
		t.Errorf("index holds %d records, %d were submitted", recs, 5+6+7+8+9)
	}
}

func TestFlushWithNothingNewWritesNoFile(t *testing.T) {
	fs := &countFS{FileSystem: dfs.NewMemFS()}
	l := newTestLane(t, fs, 1<<20, laneBatchSize)
	creates := fs.creates // job.meta
	if err := l.flush(); err != nil || fs.creates != creates {
		t.Fatalf("flush of an empty lane: err %v, %d files created", err, fs.creates-creates)
	}
	appendStep(t, l, 0, 4)
	creates = fs.creates
	if err := l.flush(); err != nil || fs.creates != creates {
		t.Fatalf("second flush without records: err %v, %d new files", err, fs.creates-creates)
	}
}

// TestFlushCostIndependentOfHistory is the deterministic form of
// BenchmarkFlushGrowth: a flush writes the same bytes whether 10 or
// 1,000 segments were sealed before it.
func TestFlushCostIndependentOfHistory(t *testing.T) {
	fs := &countFS{FileSystem: dfs.NewMemFS()}
	l := newTestLane(t, fs, 1<<20, laneBatchSize)
	var cost [1001]int
	for i := range cost {
		before := fs.written
		appendStep(t, l, 7, 5)
		cost[i] = fs.written - before
	}
	if cost[10] != cost[1000] {
		t.Errorf("flush after 10 sealed segments wrote %d bytes, after 1000 wrote %d", cost[10], cost[1000])
	}
}

// TestSegmentCommittedWithoutItsPart covers both ways a segment can be
// on disk with no part naming it — a crash after a seal, and a part
// write that fails — and that the next successful flush names it
// exactly once.
func TestSegmentCommittedWithoutItsPart(t *testing.T) {
	fs := &countFS{FileSystem: dfs.NewMemFS()}
	l := newTestLane(t, fs, 1<<20, laneBatchSize)
	appendStep(t, l, 0, 3)

	if err := l.submit(stepCapture(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.seal(); err != nil {
		t.Fatal(err)
	}
	// A reader opening now sees segment 1 on disk and only segment 0
	// indexed.
	if _, err := dfs.ReadFile(fs, "t/d/worker_00/seg_000001.seg"); err != nil {
		t.Fatalf("sealed segment is not on disk: %v", err)
	}
	if got := indexOnDisk(t, fs); len(got) != 1 {
		t.Fatalf("%d segments indexed before the flush, want 1", len(got))
	}

	boom := errors.New("boom")
	failed := 0
	fs.failCreate = func(path string) error {
		if strings.HasSuffix(path, ".idx") && failed == 0 {
			failed++
			return boom
		}
		return nil
	}
	if err := l.submit(stepCapture(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.flush(); !errors.Is(err, boom) {
		t.Fatalf("flush with a failing part write: err %v", err)
	}
	if _, err := dfs.ReadFile(fs, "t/d/worker_00/seg_000002.seg"); err != nil {
		t.Fatalf("the segment must be committed even though its part was not: %v", err)
	}
	if got := indexOnDisk(t, fs); len(got) != 1 {
		t.Fatalf("%d segments indexed after the failed part, want 1", len(got))
	}

	appendStep(t, l, 2, 2)
	if part := readPart(t, fs, "t/d/worker_00/idx_000001.idx"); len(part) != 3 {
		t.Fatalf("recovering part idx_000001 names %d segments, want 3", len(part))
	}
	got := indexOnDisk(t, fs)
	if len(got) != 4 {
		t.Fatalf("%d segments indexed, want 4", len(got))
	}
	recs := 0
	for i, seg := range got {
		if want := fmt.Sprintf("worker_00/seg_%06d.seg", i); seg.Name != want {
			t.Errorf("indexed segment %d is %q, want %q (each exactly once, in order)", i, seg.Name, want)
		}
		recs += len(seg.Entries)
	}
	if recs != 7 {
		t.Errorf("%d records indexed, want 7", recs)
	}
}

func FuzzDecodeIndex(f *testing.F) {
	valid := appendIndex(nil, []segmentIndex{
		{Name: "lane/seg_000000.seg", Entries: []indexEntry{{Kind: 2, Step: 3, ID: -4, Offset: 9, Length: 50}, {Kind: 1, Step: 3, Offset: 60, Length: 7}}},
		{Name: "lane/seg_000001.seg"},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(valid[:len(valid):len(valid)], 0, 0, 0)) // bytes after the last segment
	f.Add([]byte(idxMagic))
	f.Add([]byte("GRFTIDX2"))
	// Counts that promise far more than the bytes can hold.
	lying := binary.AppendUvarint([]byte(idxMagic), 1<<60)
	f.Add(lying)
	lying = binary.AppendUvarint([]byte(idxMagic), 1)
	lying = append(binary.AppendUvarint(lying, 1), 'a')
	f.Add(binary.AppendUvarint(lying, 1<<40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		segs, err := decodeIndex(raw)
		if err != nil {
			return
		}
		ents := 0
		for _, seg := range segs {
			ents += len(seg.Entries)
			if cap(seg.Entries) > len(raw) {
				t.Fatalf("%d entries of capacity for %d bytes of input", cap(seg.Entries), len(raw))
			}
			for _, ent := range seg.Entries {
				if ent.Offset < 0 || ent.Length < 0 || ent.Offset+ent.Length < 0 || ent.Step < 0 {
					t.Fatalf("accepted an entry that wraps: %+v", ent)
				}
			}
		}
		if cap(segs) > len(raw) || ents > len(raw) {
			t.Fatalf("%d segments, %d entries from %d bytes", cap(segs), ents, len(raw))
		}
		// The decoder is strict, so what it accepts is the one
		// encoding of what it returns: no byte more.
		if again := appendIndex(nil, segs); !bytes.Equal(again, raw) {
			t.Fatalf("what decodeIndex accepts must round-trip: %x re-encodes as %x", raw, again)
		}
	})
}

// scanSeeds writes fixed-seed random streams through sinks at a small
// and the default segment size and returns every segment they sealed,
// keyed by its bytes, with the entries its index part names.
func scanSeeds(tb testing.TB) map[string][]indexEntry {
	tb.Helper()
	seeds := map[string][]indexEntry{}
	for _, segSize := range []int{64, DefaultSegmentSize} {
		fs := dfs.NewMemFS()
		sink, err := NewStore(fs, "t").newSink(JobMeta{JobID: "s", NumWorkers: 2}, segSize, laneBatchSize)
		if err != nil {
			tb.Fatal(err)
		}
		writeRandomStream(tb, sink, rand.New(rand.NewSource(7)), 2, false)
		names, err := fs.List("t/s/")
		if err != nil {
			tb.Fatal(err)
		}
		for _, n := range names {
			if !strings.HasSuffix(n, ".idx") {
				continue
			}
			raw, err := dfs.ReadFile(fs, n)
			if err != nil {
				tb.Fatal(err)
			}
			segs, err := decodeIndex(raw)
			if err != nil {
				tb.Fatal(err)
			}
			for _, seg := range segs {
				data, err := dfs.ReadFile(fs, "t/s/"+seg.Name)
				if err != nil {
					tb.Fatal(err)
				}
				seeds[string(data)] = seg.Entries
			}
		}
	}
	return seeds
}

// FuzzScanSegment: the scan a reader runs over a segment no index part
// names never panics, never holds more entries than the input has
// bytes, and returns only entries that lie inside the segment; over a
// real sealed segment it returns exactly the entries of its part.
func FuzzScanSegment(f *testing.F) {
	sealed := scanSeeds(f)
	for data := range sealed {
		f.Add([]byte(data))
		f.Add([]byte(data[:len(data)-1])) // truncated frame
	}
	f.Add([]byte(segMagic))
	// Frames whose length prefix promises more than the segment holds.
	f.Add(binary.AppendUvarint([]byte(segMagic), 1<<60))
	f.Add(append(binary.AppendUvarint([]byte(segMagic), 40), byte(kindVertexCapture), 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ents, err := scanSegmentEntries(data)
		if err != nil {
			return
		}
		if cap(ents) > len(data) {
			t.Fatalf("%d entries of capacity from %d bytes", cap(ents), len(data))
		}
		for _, ent := range ents {
			if ent.Length > math.MaxUint32 {
				t.Fatalf("entry %+v is longer than a location holds", ent)
			}
			if loc := (recordLoc{off: int64(ent.Offset), ln: uint32(ent.Length)}); !loc.within(len(data)) {
				t.Fatalf("entry %+v lies outside a %d-byte segment", ent, len(data))
			}
		}
		if want, ok := sealed[string(data)]; ok && !reflect.DeepEqual(ents, want) {
			t.Fatalf("scan of a sealed segment differs from its index part:\n got %v\nwant %v", ents, want)
		}
	})
}

// discardFS accepts and forgets everything, so the benchmark below
// measures the lane and not a growing map.
type discardFS struct{}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func (discardFS) Create(string) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }
func (discardFS) Open(string) (io.ReadCloser, error)    { return nil, errors.New("discardFS: no files") }
func (discardFS) List(string) ([]string, error)         { return nil, nil }
func (discardFS) Remove(string) error                   { return nil }

// BenchmarkFlushGrowth measures one barrier — 64 records and a flush —
// on a lane that already holds 10 or 1,000 sealed segments. The two
// must cost the same: a flush writes its own part, not the lane's whole
// index.
func BenchmarkFlushGrowth(b *testing.B) {
	value := pregel.NewText(strings.Repeat("x", 80))
	barrier := func(l *sinkLane, step int) {
		for i := 0; i < 64; i++ {
			if err := l.submit(&VertexCapture{Superstep: step, ID: pregel.VertexID(i), ValueAfter: value}); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.flush(); err != nil {
			b.Fatal(err)
		}
	}
	for _, sealed := range []int{10, 1000} {
		b.Run(fmt.Sprintf("sealed=%d", sealed), func(b *testing.B) {
			l := newTestLane(b, discardFS{}, 1<<20, laneBatchSize)
			for i := 0; i < sealed; i++ {
				barrier(l, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				barrier(l, sealed+i)
			}
		})
	}
}
