package faults

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"time"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// The retry budget: maxRetries re-attempts after the first failure of
// one logical operation, backing off from baseDelay and doubling up to
// maxDelay. Small, because the simulated file systems fail fast and the
// wrapper must never stall a superstep barrier noticeably.
const (
	maxRetries = 4
	baseDelay  = time.Millisecond
	maxDelay   = 20 * time.Millisecond
)

// putFileOps is how many injectable operations one whole-file attempt
// makes: create, write, close.
const putFileOps = 3

// counterStats aggregates RetryFS's counters with atomic updates
// (retries may fire from concurrent worker goroutines).
type counterStats struct {
	retries   atomic.Int64
	backoffNS atomic.Int64
}

func (s *counterStats) addRetry(d time.Duration) {
	s.retries.Add(1)
	s.backoffNS.Add(int64(d))
}

func (s *counterStats) snapshot() pregel.FaultStats {
	return pregel.FaultStats{Retries: s.retries.Load(), Backoff: time.Duration(s.backoffNS.Load())}
}

// RetryFS wraps a file system with bounded, capped-exponential-backoff
// retries. Reads, listings and removals are retried per call; writes
// are buffered and committed as a whole file on Close, with each
// failed attempt's partial file removed before the next try, so a
// checkpoint or trace file is either fully present or absent.
//
// Backoff jitter is derived deterministically from (Seed, path,
// attempt), never from a shared RNG, so concurrent retries across
// files do not perturb each other's timing decisions.
type RetryFS struct {
	FS dfs.FileSystem
	// Seed drives jitter decisions.
	Seed int64
	// Sleep is swappable for tests; nil means time.Sleep.
	Sleep func(time.Duration)

	stats counterStats
}

// NewRetryFS wraps fs with the retry budget.
func NewRetryFS(fs dfs.FileSystem, seed int64) *RetryFS {
	return &RetryFS{FS: fs, Seed: seed}
}

// backoffDelay computes the capped exponential delay for one attempt
// with deterministic jitter in [d/2, d).
func (r *RetryFS) backoffDelay(path string, attempt int) time.Duration {
	d := baseDelay << uint(attempt)
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	half := d / 2
	j := splitmix64(uint64(r.Seed) ^ splitmix64(pathHash(path)) + uint64(attempt))
	return half + time.Duration(j%uint64(half))
}

// retryable reports whether an error is worth another attempt. Missing
// files are permanent; everything else (injected faults, dead
// datanodes, unavailable blocks) is treated as transient.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, dfs.ErrNotExist)
}

// do runs op with retries, recording backoff stats.
func (r *RetryFS) do(path string, op func() error) error {
	err := op()
	for attempt := 0; retryable(err) && attempt < maxRetries; attempt++ {
		d := r.backoffDelay(path, attempt)
		if r.Sleep != nil {
			r.Sleep(d)
		} else {
			time.Sleep(d)
		}
		r.stats.addRetry(d)
		err = op()
	}
	return err
}

// Create implements dfs.FileSystem. The returned writer buffers all
// data; the retried whole-file commit happens on Close.
func (r *RetryFS) Create(path string) (io.WriteCloser, error) {
	return &retryWriter{fs: r, path: path}, nil
}

// Open implements dfs.FileSystem.
func (r *RetryFS) Open(path string) (io.ReadCloser, error) {
	var rc io.ReadCloser
	err := r.do(path, func() error {
		var e error
		rc, e = r.FS.Open(path)
		return e
	})
	return rc, err
}

// List implements dfs.FileSystem.
func (r *RetryFS) List(prefix string) ([]string, error) {
	var names []string
	err := r.do(prefix, func() error {
		var e error
		names, e = r.FS.List(prefix)
		return e
	})
	return names, err
}

// Remove implements dfs.FileSystem.
func (r *RetryFS) Remove(path string) error {
	return r.do(path, func() error { return r.FS.Remove(path) })
}

// FaultStats implements pregel.FaultStatsProvider: this layer's
// retries and backoff, not the counters of the layers under it.
func (r *RetryFS) FaultStats() pregel.FaultStats { return r.stats.snapshot() }

// Unwrap returns the wrapped file system, for dfs.Layers.
func (r *RetryFS) Unwrap() dfs.FileSystem { return r.FS }

// putFile writes data to path as one atomic attempt: create, write,
// close. A failed attempt removes whatever partial file it may have
// left before backing off, so readers never see a torn file from a
// retried write.
func (r *RetryFS) putFile(path string, data []byte) error {
	attempt := func() error {
		w, err := r.FS.Create(path)
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			w.Close()
			r.FS.Remove(path) // best-effort cleanup of a partial file
			return err
		}
		if err := w.Close(); err != nil {
			r.FS.Remove(path)
			return err
		}
		return nil
	}
	return r.do(path, attempt)
}

type retryWriter struct {
	fs     *RetryFS
	path   string
	buf    bytes.Buffer
	closed bool
	err    error
}

func (w *retryWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, io.ErrClosedPipe
	}
	return w.buf.Write(p)
}

func (w *retryWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	w.err = w.fs.putFile(w.path, w.buf.Bytes())
	return w.err
}
