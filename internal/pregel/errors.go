package pregel

import (
	"errors"
	"fmt"
)

// ComputeError wraps a failure inside a vertex or master computation
// with enough context to locate it: the vertex (or MasterVertexID for
// the master), the superstep and the worker. A panic in user code is
// recovered by the engine and reported as a ComputeError carrying the
// panic value and stack; Graft's instrumenter additionally captures
// the failing vertex's full context before the error propagates.
type ComputeError struct {
	VertexID  VertexID
	Superstep int
	Worker    int
	Err       error  // non-nil when Compute returned an error
	Panic     any    // non-nil when Compute panicked
	Stack     string // goroutine stack at the panic site
}

// MasterVertexID is the sentinel VertexID used in ComputeError for
// failures inside master.compute.
const MasterVertexID VertexID = -1

// Error implements error.
func (e *ComputeError) Error() string {
	who := fmt.Sprintf("vertex %d", e.VertexID)
	if e.VertexID == MasterVertexID {
		who = "master"
	}
	if e.Panic != nil {
		return fmt.Sprintf("pregel: panic in compute of %s at superstep %d (worker %d): %v",
			who, e.Superstep, e.Worker, e.Panic)
	}
	return fmt.Sprintf("pregel: compute of %s at superstep %d (worker %d): %v",
		who, e.Superstep, e.Worker, e.Err)
}

// Unwrap exposes the wrapped error for errors.Is/As.
func (e *ComputeError) Unwrap() error { return e.Err }

// ErrNoCheckpoint is returned when a simulated worker failure occurs
// and no checkpoint is available to recover from.
var ErrNoCheckpoint = errors.New("pregel: worker failed and no checkpoint is available")

// ErrTooManyRecoveries is returned when failure injection exceeds the
// engine's recovery budget (3 attempts per job).
var ErrTooManyRecoveries = errors.New("pregel: exceeded maximum recovery attempts")
