package dfs

import (
	"bytes"
	"io"
	"sort"
	"sync"
)

// MemFS is an in-memory FileSystem safe for concurrent use. Files
// become visible atomically when their writer is closed.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

// Create implements FileSystem.
func (fs *MemFS) Create(path string) (io.WriteCloser, error) {
	if err := validatePath(path); err != nil {
		return nil, err
	}
	return &memWriter{fs: fs, path: path}, nil
}

// Open implements FileSystem. The handle is the file's bytes.Reader, so
// it also serves ReadAt and reports Size.
func (fs *MemFS) Open(path string) (io.ReadCloser, error) {
	fs.mu.RLock()
	data, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotExist
	}
	return memFile{bytes.NewReader(data)}, nil
}

type memFile struct{ *bytes.Reader }

func (memFile) Close() error { return nil }

// List implements FileSystem.
func (fs *MemFS) List(prefix string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var names []string
	for name := range fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FileSystem.
func (fs *MemFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return ErrNotExist
	}
	delete(fs.files, path)
	return nil
}

// Size returns the byte size of a file, or -1 if absent. Benchmarks
// use it to report trace-file sizes.
func (fs *MemFS) Size(path string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	data, ok := fs.files[path]
	if !ok {
		return -1
	}
	return int64(len(data))
}

// TotalBytes returns the sum of all file sizes.
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for _, data := range fs.files {
		n += int64(len(data))
	}
	return n
}

type memWriter struct {
	fs     *MemFS
	path   string
	buf    bytes.Buffer
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.fs.mu.Lock()
	w.fs.files[w.path] = append([]byte(nil), w.buf.Bytes()...)
	w.fs.mu.Unlock()
	return nil
}
