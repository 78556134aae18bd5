package faults

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// counterStats aggregates a wrapper's resilience counters with atomic
// updates (retries may fire from concurrent worker goroutines).
type counterStats struct {
	retries   atomic.Int64
	backoffNS atomic.Int64
	fallbacks atomic.Int64
}

func (s *counterStats) addRetry(d time.Duration) {
	s.retries.Add(1)
	s.backoffNS.Add(int64(d))
}
func (s *counterStats) addFallback()    { s.fallbacks.Add(1) }
func (s *counterStats) retriesN() int64 { return s.retries.Load() }

func (s *counterStats) snapshot() pregel.FaultStats {
	return pregel.FaultStats{
		Retries:   s.retries.Load(),
		Backoff:   time.Duration(s.backoffNS.Load()),
		Fallbacks: s.fallbacks.Load(),
	}
}

// FallbackFS keeps a job alive through persistent primary-storage
// failure: every file is first attempted on Primary (typically a
// RetryFS over the real DFS) and, if that conclusively fails, lands on
// Secondary (typically a local or in-memory FS) instead. The degraded
// paths are recorded so the job result can report that its trace is
// partial on the primary store — Graft degrades the capture rather
// than aborting the debugged job.
type FallbackFS struct {
	Primary   dfs.FileSystem
	Secondary dfs.FileSystem

	stats counterStats

	mu       sync.Mutex
	degraded []string
}

// NewFallbackFS returns a fallback wrapper over the two stores.
func NewFallbackFS(primary, secondary dfs.FileSystem) *FallbackFS {
	return &FallbackFS{Primary: primary, Secondary: secondary}
}

// DegradedPaths returns the paths that fell back to the secondary
// store, in the order they degraded.
func (f *FallbackFS) DegradedPaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.degraded...)
}

// Fallbacks returns how many files landed on the secondary store.
func (f *FallbackFS) Fallbacks() int64 { return f.stats.fallbacks.Load() }

func (f *FallbackFS) recordFallback(path string) {
	f.stats.addFallback()
	f.mu.Lock()
	f.degraded = append(f.degraded, path)
	f.mu.Unlock()
}

// FaultStats implements pregel.FaultStatsProvider, merging fallback
// counters with providers on both stores.
func (f *FallbackFS) FaultStats() pregel.FaultStats {
	s := f.stats.snapshot()
	if p, ok := f.Primary.(pregel.FaultStatsProvider); ok {
		s.Add(p.FaultStats())
	}
	if p, ok := f.Secondary.(pregel.FaultStatsProvider); ok {
		s.Add(p.FaultStats())
	}
	return s
}

// Create implements dfs.FileSystem. Data is buffered and committed on
// Close: primary first, secondary when the primary write conclusively
// fails.
func (f *FallbackFS) Create(path string) (io.WriteCloser, error) {
	return &fallbackWriter{fs: f, path: path}, nil
}

// Open implements dfs.FileSystem, reading from the primary and falling
// back to the secondary (where degraded files live).
func (f *FallbackFS) Open(path string) (io.ReadCloser, error) {
	r, err1 := f.Primary.Open(path)
	if err1 == nil {
		return r, nil
	}
	if r, err2 := f.Secondary.Open(path); err2 == nil {
		return r, nil
	}
	return nil, err1
}

// List implements dfs.FileSystem, merging both stores' listings.
func (f *FallbackFS) List(prefix string) ([]string, error) {
	names, err := f.Primary.List(prefix)
	if err != nil {
		names = nil
	}
	second, err2 := f.Secondary.List(prefix)
	if err != nil && err2 != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range second {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements dfs.FileSystem; removing from either store counts
// as success.
func (f *FallbackFS) Remove(path string) error {
	err1 := f.Primary.Remove(path)
	err2 := f.Secondary.Remove(path)
	if err1 == nil || err2 == nil {
		return nil
	}
	return err1
}

type fallbackWriter struct {
	fs     *FallbackFS
	path   string
	buf    bytes.Buffer
	closed bool
	err    error
}

func (w *fallbackWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *fallbackWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	perr := dfs.WriteFile(w.fs.Primary, w.path, w.buf.Bytes())
	if perr == nil {
		return nil
	}
	if serr := dfs.WriteFile(w.fs.Secondary, w.path, w.buf.Bytes()); serr != nil {
		w.err = fmt.Errorf("faults: fallback write %q: primary: %v; secondary: %w", w.path, perr, serr)
		return w.err
	}
	w.fs.recordFallback(w.path)
	return nil
}
