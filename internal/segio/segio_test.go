package segio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// memFS is an in-memory FS (atomic on Close, like dfs.MemFS) that
// counts what is written and lets a test fail a Create. The package is
// a leaf, so its tests bring their own.
type memFS struct {
	files   map[string][]byte
	creates int
	written int
	// failCreate, if non-nil, is asked before every Create.
	failCreate func(path string) error
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *memFS
	path string
	buf  bytes.Buffer
}

func (f *memFile) Write(p []byte) (int, error) { f.fs.written += len(p); return f.buf.Write(p) }
func (f *memFile) Close() error                { f.fs.files[f.path] = f.buf.Bytes(); return nil }

func (m *memFS) Create(path string) (io.WriteCloser, error) {
	if m.failCreate != nil {
		if err := m.failCreate(path); err != nil {
			return nil, err
		}
	}
	m.creates++
	return &memFile{fs: m, path: path}, nil
}

func (m *memFS) Open(path string) (io.ReadCloser, error) {
	b, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("memFS: %s: not found", path)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) List(prefix string) ([]string, error) {
	var out []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *memFS) Remove(path string) error {
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("memFS: %s: not found", path)
	}
	delete(m.files, path)
	return nil
}

// indexOnDisk decodes every *.idx under dir in name order, the way a
// reader does, and returns the segments they name.
func indexOnDisk(t *testing.T, fs *memFS, dir string) []SegmentIndex {
	t.Helper()
	names, _ := fs.List(dir + "/")
	var segs []SegmentIndex
	for _, name := range names {
		if !strings.HasSuffix(name, ".idx") {
			continue
		}
		part, err := DecodeIndex(fs.files[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		segs = append(segs, part...)
	}
	return segs
}

func payloadFor(step, i int) []byte {
	return []byte(fmt.Sprintf("step %d record %d %s", step, i, strings.Repeat("x", i%7)))
}

// appendRecord frames one payload (uvarint length ++ payload), as the
// trace sink frames its records, and appends it as a batch of one.
func appendRecord(w *Writer, payload []byte, ent Entry) error {
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	ent.Offset, ent.Length = len(frame), len(payload)
	return w.AppendFramed(append(frame, payload...), []Entry{ent})
}

// appendStep appends n records of one step and flushes.
func appendStep(t *testing.T, w *Writer, step, n int) Part {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := appendRecord(w, payloadFor(step, i), Entry{Kind: 1, Step: step, ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	part, err := w.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func flatten(parts []Part) []SegmentIndex {
	var segs []SegmentIndex
	for _, p := range parts {
		segs = append(segs, p.Segments...)
	}
	return segs
}

func TestPartsRoundTrip(t *testing.T) {
	fs := newMemFS()
	w := NewWriter(fs, "d", "lane", 64, nil) // several segments per flush
	var parts []Part
	for step := 0; step < 5; step++ {
		parts = append(parts, appendStep(t, w, step, 5+step))
	}
	for i, p := range parts {
		if want := fmt.Sprintf("lane/idx_%06d.idx", i); p.Name != want {
			t.Errorf("part %d is named %q, want %q", i, p.Name, want)
		}
		if len(p.Segments) < 2 {
			t.Errorf("part %d names %d segments; the 64-byte threshold should force several", i, len(p.Segments))
		}
	}
	// What the reader decodes from the parts, in name order, is what
	// the flushes returned: every segment once, in seal order.
	got := indexOnDisk(t, fs, "d")
	if want := flatten(parts); !reflect.DeepEqual(got, want) {
		t.Fatalf("index on disk differs from the returned parts:\n got %v\nwant %v", got, want)
	}
	seq, recs := 0, 0
	for _, seg := range got {
		if want := fmt.Sprintf("lane/seg_%06d.seg", seq); seg.Name != want {
			t.Fatalf("segment %d is %q, want %q", seq, seg.Name, want)
		}
		seq++
		raw := fs.files["d/"+seg.Name]
		if !bytes.HasPrefix(raw, []byte(SegMagic)) {
			t.Fatalf("%s does not start with %s", seg.Name, SegMagic)
		}
		for _, ent := range seg.Entries {
			if want := payloadFor(ent.Step, int(ent.ID)); !bytes.Equal(raw[ent.Offset:ent.Offset+ent.Length], want) {
				t.Fatalf("%s: entry %+v locates %q, want %q", seg.Name, ent, raw[ent.Offset:ent.Offset+ent.Length], want)
			}
			recs++
		}
	}
	if int64(recs) != w.Records() || recs != 5+6+7+8+9 {
		t.Errorf("index holds %d records, writer appended %d", recs, w.Records())
	}
}

func TestFlushWithNothingNewWritesNoFile(t *testing.T) {
	fs := newMemFS()
	w := NewWriter(fs, "d", "lane", 1<<20, nil)
	if part, err := w.Flush(); err != nil || part.Name != "" || fs.creates != 0 {
		t.Fatalf("flush of an empty lane: part %+v, err %v, %d files created", part, err, fs.creates)
	}
	appendStep(t, w, 0, 4)
	creates := fs.creates
	if part, err := w.Flush(); err != nil || len(part.Segments) != 0 || fs.creates != creates {
		t.Fatalf("second flush without records: part %+v, err %v, %d new files", part, err, fs.creates-creates)
	}
}

// TestFlushCostIndependentOfHistory is the deterministic form of
// BenchmarkFlushGrowth: a flush writes the same bytes whether 10 or
// 1,000 segments were sealed before it.
func TestFlushCostIndependentOfHistory(t *testing.T) {
	fs := newMemFS()
	w := NewWriter(fs, "d", "lane", 1<<20, nil)
	var cost [1001]int
	for i := range cost {
		before := fs.written
		appendStep(t, w, 7, 5)
		cost[i] = fs.written - before
	}
	if cost[10] != cost[1000] {
		t.Errorf("flush after 10 sealed segments wrote %d bytes, after 1000 wrote %d", cost[10], cost[1000])
	}
}

// TestSegmentCommittedWithoutItsPart covers both ways a segment can be
// on disk with no part naming it — a crash after Seal, and a part write
// that fails — and that the next successful flush names it exactly
// once.
func TestSegmentCommittedWithoutItsPart(t *testing.T) {
	fs := newMemFS()
	w := NewWriter(fs, "d", "lane", 1<<20, nil)
	appendStep(t, w, 0, 3)

	appendRecord(w, payloadFor(1, 0), Entry{Kind: 1, Step: 1})
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	// A reader opening now sees segment 1 on disk and only segment 0
	// indexed.
	if _, ok := fs.files["d/lane/seg_000001.seg"]; !ok {
		t.Fatal("sealed segment is not on disk")
	}
	if got := indexOnDisk(t, fs, "d"); len(got) != 1 {
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
	appendRecord(w, payloadFor(1, 1), Entry{Kind: 1, Step: 1, ID: 1})
	if part, err := w.Flush(); !errors.Is(err, boom) || len(part.Segments) != 0 {
		t.Fatalf("flush with a failing part write: part %+v, err %v", part, err)
	}
	if _, ok := fs.files["d/lane/seg_000002.seg"]; !ok {
		t.Fatal("the segment must be committed even though its part was not")
	}
	if got := indexOnDisk(t, fs, "d"); len(got) != 1 {
		t.Fatalf("%d segments indexed after the failed part, want 1", len(got))
	}

	part := appendStep(t, w, 2, 2)
	if part.Name != "lane/idx_000001.idx" || len(part.Segments) != 3 {
		t.Fatalf("recovering part = %q naming %d segments, want idx_000001 naming 3", part.Name, len(part.Segments))
	}
	got := indexOnDisk(t, fs, "d")
	if len(got) != 4 {
		t.Fatalf("%d segments indexed, want 4", len(got))
	}
	recs := 0
	for i, seg := range got {
		if want := fmt.Sprintf("lane/seg_%06d.seg", i); seg.Name != want {
			t.Errorf("indexed segment %d is %q, want %q (each exactly once, in order)", i, seg.Name, want)
		}
		recs += len(seg.Entries)
	}
	if recs != 7 || w.Records() != 7 {
		t.Errorf("%d records indexed, %d appended, want 7", recs, w.Records())
	}
}

func FuzzDecodeIndex(f *testing.F) {
	valid := EncodeIndex([]SegmentIndex{
		{Name: "lane/seg_000000.seg", Entries: []Entry{{Kind: 2, Step: 3, ID: -4, Offset: 9, Length: 50}, {Kind: 1, Step: 3, Offset: 60, Length: 7}}},
		{Name: "lane/seg_000001.seg"},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(IdxMagic))
	f.Add([]byte("GRFTIDX2"))
	// Counts that promise far more than the bytes can hold.
	lying := binary.AppendUvarint([]byte(IdxMagic), 1<<60)
	f.Add(lying)
	lying = binary.AppendUvarint([]byte(IdxMagic), 1)
	lying = append(binary.AppendUvarint(lying, 1), 'a')
	f.Add(binary.AppendUvarint(lying, 1<<40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		segs, err := DecodeIndex(raw)
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
		again, err := DecodeIndex(EncodeIndex(segs))
		if err != nil || len(again) != len(segs) {
			t.Fatalf("what DecodeIndex accepts must round-trip: %v", err)
		}
		for i := range segs {
			if again[i].Name != segs[i].Name || len(again[i].Entries) != len(segs[i].Entries) {
				t.Fatalf("segment %d changed in the round trip", i)
			}
			for j := range segs[i].Entries {
				if again[i].Entries[j] != segs[i].Entries[j] {
					t.Fatalf("segment %d entry %d changed in the round trip", i, j)
				}
			}
		}
	})
}

// discardFS accepts and forgets everything, so the benchmark below
// measures the writer and not a growing map.
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
	payload := bytes.Repeat([]byte{0xAB}, 96)
	barrier := func(w *Writer, step int) {
		for i := 0; i < 64; i++ {
			appendRecord(w, payload, Entry{Kind: 2, Step: step, ID: int64(i)})
		}
		if _, err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	for _, sealed := range []int{10, 1000} {
		b.Run(fmt.Sprintf("sealed=%d", sealed), func(b *testing.B) {
			w := NewWriter(discardFS{}, "d", "lane", 1<<20, nil)
			for i := 0; i < sealed; i++ {
				barrier(w, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				barrier(w, sealed+i)
			}
		})
	}
}
