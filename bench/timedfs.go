package main

import (
	"io"
	"sync/atomic"
	"time"

	"graft/internal/dfs"
)

// timedFS measures the dfs layer from outside: it wraps any
// dfs.FileSystem, counts the operations and the bytes that pass
// through Write and Read, and times each file from Create to Close
// (or Open to Close). The trace layer writes and reads whole files in
// one create/write/close cycle, so that interval is the time the
// caller spent inside the file system. With a recorder attached each
// file also becomes a span under the span set by setParent.
type timedFS struct {
	inner  dfs.FileSystem
	rec    *recorder
	parent atomic.Int64

	writeNs, writeBytes, writeOps atomic.Int64
	readNs, readBytes, readOps    atomic.Int64
	listOps                       atomic.Int64
}

func newTimedFS(inner dfs.FileSystem, rec *recorder) *timedFS {
	t := &timedFS{inner: inner, rec: rec}
	t.parent.Store(noSpan)
	return t
}

// setParent names the span (a job or a read-back) that file spans
// opened from now on belong to.
func (t *timedFS) setParent(id int) { t.parent.Store(int64(id)) }

// fsCounters is a snapshot of a timedFS.
type fsCounters struct {
	WriteTime, ReadTime           time.Duration
	WriteBytes, WriteOps          int64
	ReadBytes, ReadOps, ListCalls int64
}

func (t *timedFS) counters() fsCounters {
	return fsCounters{
		WriteTime:  time.Duration(t.writeNs.Load()),
		ReadTime:   time.Duration(t.readNs.Load()),
		WriteBytes: t.writeBytes.Load(), WriteOps: t.writeOps.Load(),
		ReadBytes: t.readBytes.Load(), ReadOps: t.readOps.Load(),
		ListCalls: t.listOps.Load(),
	}
}

func (c fsCounters) sub(o fsCounters) fsCounters {
	return fsCounters{
		WriteTime: c.WriteTime - o.WriteTime, ReadTime: c.ReadTime - o.ReadTime,
		WriteBytes: c.WriteBytes - o.WriteBytes, WriteOps: c.WriteOps - o.WriteOps,
		ReadBytes: c.ReadBytes - o.ReadBytes, ReadOps: c.ReadOps - o.ReadOps,
		ListCalls: c.ListCalls - o.ListCalls,
	}
}

// Create implements dfs.FileSystem.
func (t *timedFS) Create(path string) (io.WriteCloser, error) {
	start := time.Now()
	id := t.rec.begin("dfs.write", int(t.parent.Load()))
	w, err := t.inner.Create(path)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	return &timedWriter{fs: t, w: w, start: start, span: id}, nil
}

// Open implements dfs.FileSystem.
func (t *timedFS) Open(path string) (io.ReadCloser, error) {
	start := time.Now()
	id := t.rec.begin("dfs.read", int(t.parent.Load()))
	r, err := t.inner.Open(path)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	return &timedReader{fs: t, r: r, start: start, span: id}, nil
}

// List implements dfs.FileSystem.
func (t *timedFS) List(prefix string) ([]string, error) {
	t.listOps.Add(1)
	return t.inner.List(prefix)
}

// Remove implements dfs.FileSystem.
func (t *timedFS) Remove(path string) error { return t.inner.Remove(path) }

type timedWriter struct {
	fs    *timedFS
	w     io.WriteCloser
	start time.Time
	span  int
}

func (w *timedWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.fs.writeBytes.Add(int64(n))
	return n, err
}

func (w *timedWriter) Close() error {
	err := w.w.Close()
	w.fs.writeNs.Add(int64(time.Since(w.start)))
	w.fs.writeOps.Add(1)
	w.fs.rec.end(w.span)
	return err
}

type timedReader struct {
	fs    *timedFS
	r     io.ReadCloser
	start time.Time
	span  int
}

func (r *timedReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.fs.readBytes.Add(int64(n))
	return n, err
}

func (r *timedReader) Close() error {
	err := r.r.Close()
	r.fs.readNs.Add(int64(time.Since(r.start)))
	r.fs.readOps.Add(1)
	r.fs.rec.end(r.span)
	return err
}
