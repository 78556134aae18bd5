package dfs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// openAt opens path on c and returns the handle as the io.ReaderAt the
// Cluster's handles are.
func openAt(t *testing.T, c *Cluster, path string) (io.ReaderAt, io.Closer) {
	t.Helper()
	r, err := c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ra, ok := r.(io.ReaderAt)
	if !ok {
		t.Fatalf("Cluster handle %T is not an io.ReaderAt", r)
	}
	return ra, r
}

// TestClusterReadAt walks the ranges a caller can ask for — inside one
// block, across a boundary, up to EOF, over it, past it, empty — and
// checks each against the same range of the written bytes, plus that
// only the covering blocks were fetched.
func TestClusterReadAt(t *testing.T) {
	c := NewCluster(3, 2, 16)
	want := payload(3, 4)[:56] // three full blocks and a short one
	if err := WriteFile(c, "f", want); err != nil {
		t.Fatal(err)
	}
	ra, closer := openAt(t, c, "f")
	defer closer.Close()
	if sz := ra.(interface{ Size() int64 }).Size(); sz != 56 {
		t.Fatalf("Size = %d, want 56", sz)
	}
	for _, tc := range []struct {
		name       string
		off        int64
		n          int
		got        int
		eof        bool
		wantBlocks int64
	}{
		{"within a block", 18, 10, 10, false, 1},
		{"a whole block", 16, 16, 16, false, 1},
		{"across a boundary", 12, 10, 10, false, 2},
		{"across two boundaries", 10, 30, 30, false, 3},
		{"up to EOF", 50, 6, 6, false, 1},
		{"over EOF", 50, 10, 6, true, 1},
		{"at EOF", 56, 4, 0, true, 0},
		{"past EOF", 90, 4, 0, true, 0},
		{"zero length", 20, 0, 0, false, 0},
		{"zero length at EOF", 56, 0, 0, false, 0},
	} {
		before := c.Stats().BytesRead
		p := make([]byte, tc.n)
		n, err := ra.ReadAt(p, tc.off)
		if n != tc.got || (err == io.EOF) != tc.eof || (err != nil && err != io.EOF) {
			t.Errorf("%s: ReadAt(%d bytes, %d) = %d, %v; want %d, eof=%v", tc.name, tc.n, tc.off, n, err, tc.got, tc.eof)
			continue
		}
		if n > 0 && !bytes.Equal(p[:n], want[tc.off:tc.off+int64(n)]) {
			t.Errorf("%s: wrong bytes", tc.name)
		}
		// Full blocks are 16 bytes, the last is 8; count fetches by bytes.
		moved := c.Stats().BytesRead - before
		if max := tc.wantBlocks * 16; moved > max || (tc.wantBlocks > 0 && moved == 0) {
			t.Errorf("%s: fetched %d block bytes, want those of %d block(s)", tc.name, moved, tc.wantBlocks)
		}
	}
	if _, err := ra.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative offset accepted")
	}
	closer.Close()
	if _, err := ra.ReadAt(make([]byte, 1), 0); err != io.ErrClosedPipe {
		t.Errorf("ReadAt after Close = %v, want io.ErrClosedPipe", err)
	}
}

// TestClusterReadAtVerifiesAndFallsThrough: a ranged read makes the
// checks a streamed one does. A flipped replica is quarantined, counted
// and the other replica served; a dead node is skipped; with every
// replica gone the read fails with ErrBlockUnavailable.
func TestClusterReadAtVerifiesAndFallsThrough(t *testing.T) {
	c := NewCluster(2, 2, 16)
	want := payload(5, 3)
	if err := WriteFile(c, "f", want); err != nil {
		t.Fatal(err)
	}
	mid := c.BlockIDs()[1]
	if !c.FlipReplicaBit(mid, 0, 3) {
		t.Fatal("no replica to corrupt")
	}
	// Two reads of the middle block: the rotation starts one of them on
	// the corrupt replica whatever the rotor holds.
	for i := 0; i < 2; i++ {
		got, err := ReadRange(c, "f", 20, 8)
		if err != nil || !bytes.Equal(got, want[20:28]) {
			t.Fatalf("read %d over a corrupt replica = %x, %v", i, got, err)
		}
	}
	if got := c.Stats().CorruptReads; got != 1 {
		t.Fatalf("CorruptReads = %d, want 1", got)
	}
	if locs := c.ReplicaNodes(mid); len(locs) != 1 || locs[0] != 1 {
		t.Fatalf("corrupt replica still listed: %v", locs)
	}

	// A dead node falls through to the live one for the blocks both hold.
	c.Kill(0)
	for i := 0; i < 2; i++ {
		got, err := ReadRange(c, "f", 2, 10)
		if err != nil || !bytes.Equal(got, want[2:12]) {
			t.Fatalf("read %d with node 0 dead = %x, %v", i, got, err)
		}
	}
	c.Kill(1)
	if _, err := ReadRange(c, "f", 2, 10); !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("read with every replica dead = %v, want ErrBlockUnavailable", err)
	}
}

// TestClusterReadAtPinsVersion: an overwrite committed between Open and
// ReadAt does not change what the handle reads, and the old version's
// blocks go when the handle closes.
func TestClusterReadAtPinsVersion(t *testing.T) {
	c := NewCluster(3, 2, 16)
	v1, v2 := payload(1, 4), payload(2, 6)
	if err := WriteFile(c, "f", v1); err != nil {
		t.Fatal(err)
	}
	ra, closer := openAt(t, c, "f")
	if err := WriteFile(c, "f", v2); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 40)
	if n, err := ra.ReadAt(p, 8); n != 40 || err != nil || !bytes.Equal(p, v1[8:48]) {
		t.Fatalf("ReadAt after overwrite = %d, %v; want the pinned version's bytes", n, err)
	}
	if sz := ra.(interface{ Size() int64 }).Size(); sz != int64(len(v1)) {
		t.Fatalf("Size = %d after overwrite, want the pinned %d", sz, len(v1))
	}
	closer.Close()
	total := 0
	for i := 0; i < c.NumNodes(); i++ {
		total += c.Node(i).NumBlocks()
	}
	if total != 6*2 {
		t.Fatalf("%d replicas stored after close, want only the new version's 12", total)
	}
	if got, err := ReadRange(c, "f", 8, 40); err != nil || !bytes.Equal(got, v2[8:48]) {
		t.Fatalf("fresh ranged read = %v; want the new version", err)
	}
}

// TestClusterOpenCloseStartsNoGoroutine: a handle fetches blocks on
// the caller's goroutine. Opening, ReadAt and Read start nothing, and
// Close returns at once.
func TestClusterOpenCloseStartsNoGoroutine(t *testing.T) {
	c := NewCluster(3, 2, 16)
	// Eight blocks, so a background fetcher would still be parked on a
	// later block when the goroutine count is taken.
	if err := WriteFile(c, "f", payload(1, 8)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var handles []io.ReadCloser
	for i := 0; i < 20; i++ {
		r, err := c.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, r)
	}
	if _, err := handles[0].(io.ReaderAt).ReadAt(make([]byte, 4), 4); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after 20 Opens, %d before", got, before)
	}
	closed := make(chan struct{})
	go func() {
		for _, r := range handles {
			r.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a handle that was never read")
	}
	// A handle that was read leaves nothing running after Close.
	r, _ := c.Open("f")
	if _, err := r.Read(make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after everything closed, %d before", got, before)
	}
}

// streamOnlyFS wraps every handle the way a counting or timing
// decorator does: only Read and Close come through, so ReadRange has to
// stream. It records how many bytes were pulled through Read.
type streamOnlyFS struct {
	FileSystem
	pulled int64
}

type streamOnlyFile struct {
	fs *streamOnlyFS
	r  io.ReadCloser
}

func (f *streamOnlyFS) Open(path string) (io.ReadCloser, error) {
	r, err := f.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return &streamOnlyFile{f, r}, nil
}

func (f *streamOnlyFile) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	f.fs.pulled += int64(n)
	return n, err
}

func (f *streamOnlyFile) Close() error { return f.r.Close() }

// TestReadRangeAcrossFileSystems: ReadRange returns the same bytes from
// every FileSystem and through a decorator that hides ReadAt, where it
// never reads past the end of the range; and a range that is not inside
// the file is ErrRange, decided before any buffer of the asked-for
// length exists.
func TestReadRangeAcrossFileSystems(t *testing.T) {
	local, err := NewLocalFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := payload(9, 40) // 640 bytes
	for name, fs := range map[string]FileSystem{
		"mem": NewMemFS(), "local": local, "cluster": NewCluster(3, 2, 16),
	} {
		if err := WriteFile(fs, "d/f", want); err != nil {
			t.Fatal(err)
		}
		wrapped := &streamOnlyFS{FileSystem: fs}
		for _, rg := range [][2]int64{{0, 8}, {100, 37}, {15, 2}, {632, 8}, {640, 0}, {0, 640}, {7, 0}} {
			off, n := rg[0], rg[1]
			got, err := ReadRange(fs, "d/f", off, n)
			if err != nil || !bytes.Equal(got, want[off:off+n]) {
				t.Errorf("%s: ReadRange(%d, %d) = %d bytes, %v", name, off, n, len(got), err)
			}
			wrapped.pulled = 0
			streamed, err := ReadRange(wrapped, "d/f", off, n)
			if err != nil || !bytes.Equal(streamed, got) {
				t.Errorf("%s: streamed ReadRange(%d, %d) = %d bytes, %v; want what the bare FS returned", name, off, n, len(streamed), err)
			}
			if wrapped.pulled > off+n {
				t.Errorf("%s: streamed ReadRange(%d, %d) pulled %d bytes, past the end of the range", name, off, n, wrapped.pulled)
			}
		}
		for _, rg := range [][2]int64{{0, 641}, {600, 41}, {641, 0}, {-1, 4}, {4, -1}, {8, 1 << 50}, {1 << 50, 8}} {
			for which, f := range map[string]FileSystem{"bare": fs, "streamed": wrapped} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				got, err := ReadRange(f, "d/f", rg[0], rg[1])
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrRange) || got != nil {
					t.Errorf("%s/%s: ReadRange(%d, %d) = %d bytes, %v; want ErrRange", name, which, rg[0], rg[1], len(got), err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("%s/%s: ReadRange(%d, %d) allocated %d bytes before failing", name, which, rg[0], rg[1], grew)
				}
			}
		}
		if _, err := ReadRange(fs, "d/missing", 0, 1); !errors.Is(err, ErrNotExist) {
			t.Errorf("%s: ReadRange of a missing file = %v", name, err)
		}
	}
}

// TestReadFileAllocatesOnce: with a handle that reports its length,
// ReadFile's buffer is made once at that size instead of doubling up to
// it.
func TestReadFileAllocatesOnce(t *testing.T) {
	const size = 1 << 20
	want := bytes.Repeat([]byte{0xA5}, size)
	for name, fs := range map[string]FileSystem{"mem": NewMemFS(), "cluster": NewCluster(3, 2, 0)} {
		if err := WriteFile(fs, "f", want); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadFile(fs, "f")
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: ReadFile = %d bytes, %v", name, len(got), err)
		}
		// io.ReadAll's growth allocates about 5× the file on the way; the
		// race detector's build makes bytes.Buffer's one allocation two.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 3*size {
			t.Errorf("%s: ReadFile of %d bytes allocated %d", name, size, grew)
		}
	}
}

// TestWriteFileAllocatesOnce: WriteFile copies the file once, into what
// the store keeps. A staging buffer that grows to the file's size, then
// copied again into blocks or into the stored slice, allocates about
// twice the file.
func TestWriteFileAllocatesOnce(t *testing.T) {
	const size = 1 << 20
	data := bytes.Repeat([]byte{0x5A}, size)
	for name, fs := range map[string]FileSystem{"mem": NewMemFS(), "cluster": NewCluster(3, 2, 0)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := WriteFile(fs, "f", data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > size*5/4 {
			t.Errorf("%s: WriteFile of %d bytes allocated %d, want at most %d", name, size, grew, size*5/4)
		}
		if got, err := ReadFile(fs, "f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: read back %d bytes, %v", name, len(got), err)
		}
	}
}
