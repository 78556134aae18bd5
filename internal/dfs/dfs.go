// Package dfs provides the file-system substrate Graft writes trace
// files into and the engine checkpoints into. Giraph stores traces in
// HDFS; this package supplies three interchangeable stand-ins:
//
//   - MemFS: in-memory, for tests and benchmarks.
//   - LocalFS: a directory on local disk, for the CLI tools.
//   - Cluster: an in-process simulation of a distributed file system
//     with a namenode, chunked blocks, replication and datanode
//     failures, preserving the behaviour that matters to Graft (shared
//     namespace across concurrently writing workers, durability under
//     single-node failure).
//
// All implementations satisfy FileSystem, the one storage contract the
// engine's checkpoints, segio and the trace store write through.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"strings"
)

// FileSystem is the minimal file-system contract: whole-file create,
// open, prefix listing and removal. Paths are slash-separated keys;
// directories are implicit.
type FileSystem interface {
	// Create opens a new file for writing, truncating any existing
	// file at the path. The file becomes visible atomically on Close.
	Create(path string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(path string) (io.ReadCloser, error)
	// List returns the paths of all files whose names start with
	// prefix, in lexicographic order.
	List(prefix string) ([]string, error)
	// Remove deletes a file.
	Remove(path string) error
}

// ErrNotExist is returned when opening or removing a missing path.
var ErrNotExist = errors.New("dfs: file does not exist")

// ErrBlockUnavailable is returned by Cluster reads when every replica
// of some block lives on a dead datanode.
var ErrBlockUnavailable = errors.New("dfs: no live replica for block")

// ErrRange is returned by ReadRange for a range that does not lie
// inside the file.
var ErrRange = errors.New("dfs: range outside file")

// ErrNoDataNodes is returned by Cluster writes when no datanode is
// alive.
var ErrNoDataNodes = errors.New("dfs: no live datanodes")

// validatePath rejects empty and escaping paths. Keys may contain
// slashes but no ".." segments and must be relative.
func validatePath(path string) error {
	if path == "" {
		return errors.New("dfs: empty path")
	}
	if strings.HasPrefix(path, "/") {
		return fmt.Errorf("dfs: absolute path %q", path)
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == ".." {
			return fmt.Errorf("dfs: path %q escapes root", path)
		}
		if seg == "" {
			return fmt.Errorf("dfs: path %q has empty segment", path)
		}
	}
	return nil
}

// WriteFile writes data to path in one call.
func WriteFile(fs FileSystem, path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadFile reads the whole file at path. When the handle reports its
// length the buffer is allocated once at that size; otherwise it grows
// as the stream is read.
func ReadFile(fs FileSystem, path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size, _ := handleSize(r)
	return readAll(r, size)
}

// ReadRange reads the n bytes at offset off of the file at path. The
// handle Open returns may implement io.ReaderAt (LocalFS, MemFS and
// Cluster handles do); when it also reports its length, only the range
// is fetched — for a Cluster, only the covering blocks, each verified
// against its checksum. Any other handle, such as one a decorator
// wraps, is streamed: off bytes are skipped and n read, never more. off
// and n usually come from an index file, so they are checked against
// the handle's length before anything is allocated, and a handle that
// reports no length is read into a buffer that grows with what arrives.
func ReadRange(fs FileSystem, path string, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: [%d, +%d) of %q", ErrRange, off, n, path)
	}
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size, sized := handleSize(r)
	if sized && (off > size || n > size-off) {
		return nil, fmt.Errorf("%w: [%d, +%d) of %q (%d bytes)", ErrRange, off, n, path, size)
	}
	if ra, ok := r.(io.ReaderAt); ok && sized {
		buf := make([]byte, n)
		if got, err := ra.ReadAt(buf, off); got < len(buf) {
			return nil, fmt.Errorf("dfs: [%d, +%d) of %q: %w", off, n, path, err)
		}
		return buf, nil
	}
	if _, err := io.CopyN(io.Discard, r, off); err != nil {
		return nil, streamRangeErr(err, off, n, path)
	}
	buf, err := readAll(io.LimitReader(r, n), min(n, rangeGrowStart))
	if err == nil && int64(len(buf)) < n {
		err = io.EOF
	}
	if err != nil {
		return nil, streamRangeErr(err, off, n, path)
	}
	return buf, nil
}

// streamRangeErr names the range a streamed read failed on; a stream
// that ended early is the streaming form of ErrRange.
func streamRangeErr(err error, off, n int64, path string) error {
	if err == io.EOF {
		err = ErrRange
	}
	return fmt.Errorf("%w: [%d, +%d) of %q", err, off, n, path)
}

// rangeGrowStart caps the first allocation of a ranged read whose
// length cannot be checked against the file's.
const rangeGrowStart = 64 << 10

// handleSize returns the length of an open file when its handle
// reports one: Size (MemFS, Cluster) or Stat (LocalFS's *os.File).
func handleSize(r io.Reader) (int64, bool) {
	switch h := r.(type) {
	case interface{ Size() int64 }:
		return h.Size(), true
	case interface{ Stat() (iofs.FileInfo, error) }:
		if fi, err := h.Stat(); err == nil {
			return fi.Size(), true
		}
	}
	return 0, false
}

// readAll reads r to EOF into a buffer sized for sizeHint bytes up
// front; it grows only if the stream turns out longer.
func readAll(r io.Reader, sizeHint int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(sizeHint) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}
