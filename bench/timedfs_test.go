package main

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"graft/internal/dfs"
)

// TestTimedFSCountsWhatPasses writes files of several sizes (within a
// block, exactly a block, many blocks) through the decorator into a
// replicated cluster and reads them back through it: the bytes counted
// are the bytes stored, and the cluster's own counter is replication
// times that.
func TestTimedFSCountsWhatPasses(t *testing.T) {
	const replication = 2
	cluster := dfs.NewCluster(4, replication, 0)
	rec := newRecorder()
	tfs := newTimedFS(cluster, rec)
	parent := rec.begin("job", noSpan)
	tfs.setParent(parent)

	rng := rand.New(rand.NewSource(1))
	files := map[string][]byte{}
	var total int64
	for i, n := range []int{0, 1, 1000, 64 << 10, 64<<10 + 1, 300_000} {
		data := make([]byte, n)
		rng.Read(data)
		name := "dir/file-" + string(rune('a'+i))
		files[name] = data
		total += int64(n)
		if err := dfs.WriteFile(tfs, name, data); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range files {
		got, err := dfs.ReadFile(tfs, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: read back %d bytes, differ from the %d written", name, len(got), len(want))
		}
	}
	if names, err := tfs.List("dir/"); err != nil || len(names) != len(files) {
		t.Errorf("List = %v, %v; want %d names", names, err, len(files))
	}
	if _, err := tfs.Open("dir/missing"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	rec.end(parent)

	c := tfs.counters()
	if c.WriteBytes != total || c.ReadBytes != total {
		t.Errorf("write_bytes = %d, read_bytes = %d, want both %d", c.WriteBytes, c.ReadBytes, total)
	}
	if n := int64(len(files)); c.WriteOps != n || c.ReadOps != n || c.ListCalls != 1 {
		t.Errorf("ops = %d writes, %d reads, %d lists; want %d, %d, 1", c.WriteOps, c.ReadOps, c.ListCalls, n, n)
	}
	if c.WriteTime <= 0 || c.ReadTime <= 0 {
		t.Errorf("times = %v write, %v read; want both positive", c.WriteTime, c.ReadTime)
	}
	if got := cluster.Stats().BytesWritten; got != replication*c.WriteBytes {
		t.Errorf("Cluster.Stats().BytesWritten = %d, want %d x %d", got, replication, c.WriteBytes)
	}
	// One span per file opened (the failed Open included), all under
	// the parent set when they began.
	var fileSpans int
	for _, s := range rec.snapshot() {
		if s.Name == "dfs.write" || s.Name == "dfs.read" {
			fileSpans++
			if s.Parent != parent {
				t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, parent)
			}
		}
	}
	if want := 2*len(files) + 1; fileSpans != want {
		t.Errorf("%d file spans, want %d", fileSpans, want)
	}
	if d := c.sub(c); d != (fsCounters{}) {
		t.Errorf("counters minus themselves = %+v", d)
	}
	// A nil recorder records nothing and must not be touched.
	plain := newTimedFS(dfs.NewMemFS(), nil)
	if err := dfs.WriteFile(plain, "x", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	r, err := plain.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := io.Copy(io.Discard, r); n != 3 {
		t.Errorf("read %d bytes, want 3", n)
	}
	r.Close()
}
