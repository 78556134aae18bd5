package dfs

import (
	"io"
	"time"
)

// LatencyFS wraps a FileSystem and charges a fixed delay per
// operation, modeling the network round trips of a remote store. MemFS
// commits in nanoseconds, which makes trace-write cost invisible in
// experiments; an HDFS-style store pays a round trip to the namenode
// on create and another to commit on close, and that latency — not
// CPU — is what asynchronous capture pipelines overlap with compute.
//
// One delay is charged at Create, writer Close, Open, List and Remove.
// Byte transfer is left instant: the wrapper models round-trip count,
// not bandwidth.
type LatencyFS struct {
	FS    FileSystem
	Delay time.Duration
}

// Create implements FileSystem: one delay to open the remote file, one
// more when the returned writer commits on Close.
func (l *LatencyFS) Create(path string) (io.WriteCloser, error) {
	time.Sleep(l.Delay)
	w, err := l.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &latencyWriter{w: w, fs: l}, nil
}

// Open implements FileSystem.
func (l *LatencyFS) Open(path string) (io.ReadCloser, error) {
	time.Sleep(l.Delay)
	return l.FS.Open(path)
}

// List implements FileSystem.
func (l *LatencyFS) List(prefix string) ([]string, error) {
	time.Sleep(l.Delay)
	return l.FS.List(prefix)
}

// Remove implements FileSystem.
func (l *LatencyFS) Remove(path string) error {
	time.Sleep(l.Delay)
	return l.FS.Remove(path)
}

type latencyWriter struct {
	w  io.WriteCloser
	fs *LatencyFS
}

func (w *latencyWriter) Write(p []byte) (int, error) { return w.w.Write(p) }

func (w *latencyWriter) Close() error {
	time.Sleep(w.fs.Delay)
	return w.w.Close()
}
