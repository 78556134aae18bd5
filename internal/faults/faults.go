// Package faults provides the storage-resilience layer under Graft's
// trace and checkpoint paths: a deterministic, seed-driven fault
// injector that wraps any dfs.FileSystem, a RetryFS that absorbs
// transient failures with capped exponential backoff, and seeded bit
// flips in a dfs.Cluster's replicas for checksum experiments.
//
// FaultFS and RetryFS each report only their own counters (FaultStats)
// and expose the file system they wrap through Unwrap, so dfs.Layers
// can list a job's storage layers and each is counted once.
//
// Determinism is the design constraint throughout: every injection and
// jitter decision is a pure hash of (seed, operation, path, per-path
// operation index), never of wall-clock time or a shared RNG stream,
// so a chaos run replays identically regardless of goroutine
// interleaving across files.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// ErrInjected marks every error produced by an Injector, so retry
// layers and tests can tell injected faults from real ones.
var ErrInjected = errors.New("faults: injected fault")

// Op identifies one file-system operation kind for injection rules and
// counters.
type Op uint8

const (
	OpCreate Op = iota
	OpOpen
	OpWrite
	OpClose
	OpList
	OpRemove
	numOps
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpClose:
		return "close"
	case OpList:
		return "list"
	case OpRemove:
		return "remove"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Plan configures an Injector. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision; two injectors with the
	// same plan make identical decisions.
	Seed int64
	// P maps an operation kind to its fault probability in [0,1].
	P map[Op]float64
	// FailNth fails exactly the Nth call (1-based, counted globally per
	// op kind) of an operation, independent of probabilities.
	FailNth map[Op]int
	// MaxFaults caps the total number of injected faults; 0 = unlimited.
	MaxFaults int
	// MaxPerPathOp caps injected faults per (path, op) pair, so a
	// bounded retry loop is guaranteed to eventually succeed against
	// this injector; 0 = unlimited.
	MaxPerPathOp int
	// ShortWrites makes injected write faults write the first half of
	// the buffer before failing, instead of writing nothing.
	ShortWrites bool
}

// ChaosPlan is the write-path abuse `graft run -chaos` and the chaos
// acceptance test inject: writes fail with probability p, creates and
// closes with p/2, short writes on. Faults per (path, op) are capped at
// maxRetries / putFileOps, so the faults one whole-file write can meet
// (putFileOps operations, each failing up to the cap) number at most
// maxRetries, and at least one of RetryFS's maxRetries+1 attempts meets
// none: a RetryFS over this plan lands every file, for any p. The run
// is abused, not doomed.
func ChaosPlan(seed int64, p float64) Plan {
	return Plan{
		Seed:         seed,
		P:            map[Op]float64{OpWrite: p, OpCreate: p / 2, OpClose: p / 2},
		MaxPerPathOp: maxRetries / putFileOps,
		ShortWrites:  true,
	}
}

// Injector makes deterministic fault decisions for one or more
// FaultFS wrappers. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	globalOp [numOps]int64
	paths    map[string]*pathState
	injected int64
}

type pathState struct {
	ops    [numOps]int64
	faults [numOps]int64
}

// NewInjector returns an injector following plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan, paths: make(map[string]*pathState)}
}

// Injected returns the total number of faults injected so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// splitmix64 is the SplitMix64 finalizer: a cheap, high-quality bit
// mixer used to derive uniform decisions from (seed, op, path, index).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func pathHash(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64()
}

// unitFloat derives a deterministic uniform float in [0,1).
func unitFloat(seed int64, op Op, path string, n int64) float64 {
	x := splitmix64(uint64(seed) ^ splitmix64(pathHash(path)+uint64(op)<<56) + uint64(n))
	return float64(x>>11) / float64(1<<53)
}

// decide records one operation and returns a non-nil error when the
// plan injects a fault into it.
func (in *Injector) decide(op Op, path string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.paths[path]
	if st == nil {
		st = &pathState{}
		in.paths[path] = st
	}
	n := st.ops[op]
	st.ops[op]++
	in.globalOp[op]++

	fail := false
	if nth := in.plan.FailNth[op]; nth > 0 && in.globalOp[op] == int64(nth) {
		fail = true
	}
	if !fail {
		if p := in.plan.P[op]; p > 0 && unitFloat(in.plan.Seed, op, path, n) < p {
			fail = true
		}
	}
	if !fail {
		return nil
	}
	if in.plan.MaxFaults > 0 && in.injected >= int64(in.plan.MaxFaults) {
		return nil
	}
	if in.plan.MaxPerPathOp > 0 && st.faults[op] >= int64(in.plan.MaxPerPathOp) {
		return nil
	}
	st.faults[op]++
	in.injected++
	return fmt.Errorf("%w: %s %q (op #%d)", ErrInjected, op, path, n+1)
}

// FaultFS wraps a file system, consulting an Injector before every
// operation. A nil Injector passes everything through.
type FaultFS struct {
	FS  dfs.FileSystem
	Inj *Injector
}

// NewFaultFS wraps fs with a fresh injector following plan.
func NewFaultFS(fs dfs.FileSystem, plan Plan) *FaultFS {
	return &FaultFS{FS: fs, Inj: NewInjector(plan)}
}

// Create implements dfs.FileSystem.
func (f *FaultFS) Create(path string) (io.WriteCloser, error) {
	if err := f.Inj.decide(OpCreate, path); err != nil {
		return nil, err
	}
	w, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultWriter{w: w, inj: f.Inj, path: path}, nil
}

// Open implements dfs.FileSystem.
func (f *FaultFS) Open(path string) (io.ReadCloser, error) {
	if err := f.Inj.decide(OpOpen, path); err != nil {
		return nil, err
	}
	return f.FS.Open(path)
}

// List implements dfs.FileSystem.
func (f *FaultFS) List(prefix string) ([]string, error) {
	if err := f.Inj.decide(OpList, prefix); err != nil {
		return nil, err
	}
	return f.FS.List(prefix)
}

// Remove implements dfs.FileSystem.
func (f *FaultFS) Remove(path string) error {
	if err := f.Inj.decide(OpRemove, path); err != nil {
		return err
	}
	return f.FS.Remove(path)
}

// FaultStats implements pregel.FaultStatsProvider: the faults this
// layer injected, not those of the layers under it.
func (f *FaultFS) FaultStats() pregel.FaultStats {
	return pregel.FaultStats{Injected: f.Inj.Injected()}
}

// Unwrap returns the wrapped file system, for dfs.Layers.
func (f *FaultFS) Unwrap() dfs.FileSystem { return f.FS }

type faultWriter struct {
	w    io.WriteCloser
	inj  *Injector
	path string
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if err := w.inj.decide(OpWrite, w.path); err != nil {
		if w.inj.plan.ShortWrites && len(p) > 1 {
			// A short write: half the buffer lands before the fault, the
			// canonical way real storage produces truncated files.
			n, werr := w.w.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return w.w.Write(p)
}

// Close injects commit failures: on an injected close fault the inner
// writer is NOT closed, so file systems with atomic-on-close semantics
// never commit the file — modeling a crash before the namenode commit.
func (w *faultWriter) Close() error {
	if err := w.inj.decide(OpClose, w.path); err != nil {
		return err
	}
	return w.w.Close()
}
