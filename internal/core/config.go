// Package core implements Graft's capture stage: the DebugConfig that
// selects which vertices to capture (paper §3.1), and the Instrumenter
// that wraps the user's vertex and master computations to intercept
// value updates, sent messages and exceptions, writing full vertex
// contexts to per-worker trace files.
//
// The Java Graft injects its wrapper with Javassist bytecode rewriting
// because Giraph instantiates the user's Computation class itself; the
// Go engine accepts any Computation value, so the Instrumenter here is
// a plain decorator — the intercepted events are the same.
package core

import (
	"fmt"

	"graft/internal/pregel"
)

// DefaultMaxCaptures is the safety-net capture limit used when
// DebugConfig.MaxCaptures is zero (paper §3.1: "an adjustable
// threshold, specifying a maximum number of captures, after which
// Graft stops capturing").
const DefaultMaxCaptures = 2_000_000

// DebugConfig selects which vertices Graft captures, mirroring the
// five categories of the paper's DebugConfig class:
//
//  1. vertices listed by ID (CaptureIDs), optionally with neighbors;
//  2. a random set of vertices (NumRandomCaptures), optionally with
//     neighbors;
//  3. vertices whose value violates VertexValueConstraint;
//  4. vertices that send a message violating MessageConstraint;
//  5. vertices that raise exceptions (CaptureExceptions).
//
// Alternatively CaptureAllActive captures every vertex that computes.
// SuperstepFilter limits in which supersteps any capturing happens.
type DebugConfig struct {
	// CaptureIDs lists vertices to capture in every observed
	// superstep.
	CaptureIDs []pregel.VertexID
	// CaptureNeighbors extends the by-ID and random capture sets with
	// the out-neighbors of each selected vertex.
	CaptureNeighbors bool
	// NumRandomCaptures selects this many vertices uniformly at random
	// (seeded by RandomSeed) when instrumentation attaches.
	NumRandomCaptures int
	// RandomSeed seeds the random selection, for reproducible runs.
	RandomSeed int64
	// CaptureAllActive captures every vertex that computes in an
	// observed superstep. Combine with SuperstepFilter to bound the
	// volume (the §4.3 scenario captures all active vertices after
	// superstep 500).
	CaptureAllActive bool
	// SuperstepFilter limits capturing to supersteps for which it
	// returns true; nil observes every superstep (the paper default).
	SuperstepFilter func(superstep int) bool
	// VertexValueConstraint returns false when a vertex value is
	// invalid; the vertex is then captured with a violation record.
	// Checked after the vertex computes. nil disables the check.
	VertexValueConstraint func(value pregel.Value, id pregel.VertexID, superstep int) bool
	// MessageConstraint returns false when a sent message value is
	// invalid; the sender is then captured with a violation record.
	// Checked at every send. nil disables the check.
	MessageConstraint func(msg pregel.Value, src, dst pregel.VertexID, superstep int) bool
	// IncomingMessageConstraint returns false when a received message
	// is invalid *given the receiving vertex's value* — the
	// destination-value-dependent message constraints the paper lists
	// as future work (§7). It is checked at delivery, where the
	// destination value is known (pre-compute); violations capture the
	// receiver. nil disables the check.
	IncomingMessageConstraint func(msg pregel.Value, destValue pregel.Value, dst pregel.VertexID, superstep int) bool
	// CaptureExceptions captures vertices whose compute panics or
	// returns an error. (The failure still aborts the job after being
	// captured, as in Giraph.)
	CaptureExceptions bool
	// MaxCaptures is the safety-net limit: once this many captures are
	// written, Graft stops capturing. 0 means DefaultMaxCaptures; a
	// negative value disables the limit.
	MaxCaptures int64
}

// Fig2Config reproduces the example DebugConfig of Figure 2 of the
// paper: capture 5 random vertices and their neighbors, and every
// vertex that sends a negative LongValue message, across all
// supersteps.
func Fig2Config(seed int64) DebugConfig {
	return DebugConfig{
		NumRandomCaptures: 5,
		CaptureNeighbors:  true,
		RandomSeed:        seed,
		CaptureExceptions: true,
		MessageConstraint: NonNegativeMessages,
	}
}

// NonNegativeMessages is the Figure 2 message constraint: numeric
// message values must be non-negative. It understands the builtin
// numeric scalars and any message type exposing a Count() int64 view
// (such as the random walk's counter messages); other types pass.
func NonNegativeMessages(msg pregel.Value, src, dst pregel.VertexID, superstep int) bool {
	switch v := msg.(type) {
	case *pregel.LongValue:
		return v.Get() >= 0
	case *pregel.ShortValue:
		return v.Get() >= 0
	case *pregel.IntValue:
		return v.Get() >= 0
	case *pregel.DoubleValue:
		return v.Get() >= 0
	case interface{ Count() int64 }:
		return v.Count() >= 0
	}
	return true
}

// maxCaptures resolves the effective capture limit; negative means
// unlimited.
func (c *DebugConfig) maxCaptures() int64 {
	if c.MaxCaptures == 0 {
		return DefaultMaxCaptures
	}
	if c.MaxCaptures < 0 {
		return -1
	}
	return c.MaxCaptures
}

// capturesPostHoc reports whether a vertex can become a capture target
// only once it has computed — by what it sent, the value it ended with,
// or failing. The instrumenter then snapshots every vertex before
// compute, so such a capture can be re-run from there and records the
// transition.
func (c *DebugConfig) capturesPostHoc() bool {
	return c.VertexValueConstraint != nil || c.MessageConstraint != nil || c.CaptureExceptions
}

// observes reports whether capturing applies to the given superstep.
func (c *DebugConfig) observes(superstep int) bool {
	return c.SuperstepFilter == nil || c.SuperstepFilter(superstep)
}

// Validate rejects configurations that cannot work.
func (c *DebugConfig) Validate() error {
	if c.NumRandomCaptures < 0 {
		return fmt.Errorf("core: NumRandomCaptures = %d", c.NumRandomCaptures)
	}
	return nil
}

// PanicError is how a recovered panic from user compute code
// propagates after Graft captures the failing vertex's context. The
// engine wraps it in a pregel.ComputeError identifying the vertex and
// superstep.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}
