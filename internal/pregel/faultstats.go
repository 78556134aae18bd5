package pregel

import (
	"fmt"
	"time"
)

// FaultStats aggregates the storage-resilience counters of one job:
// what the fault-injection layer threw at it and how the retry layer
// absorbed it. The engine folds in counters from
// the checkpoint file system; Graft's instrumenter folds in the trace
// file system's. All counters are zero for a run on healthy storage.
type FaultStats struct {
	// Injected counts faults produced by a test injector.
	Injected int64 `json:"injected"`
	// Retries counts storage operations re-attempted after a transient
	// failure.
	Retries int64 `json:"retries"`
	// Backoff is the total time spent sleeping between retries.
	Backoff time.Duration `json:"backoff_ns"`
	// DroppedRecords counts trace records lost to persistent write
	// failure (the job continued without them).
	DroppedRecords int64 `json:"dropped_records"`
	// CorruptCheckpoints counts checkpoints skipped during recovery
	// because they were truncated or failed to decode.
	CorruptCheckpoints int64 `json:"corrupt_checkpoints"`
	// CheckpointsDeleted counts old checkpoints removed by retention
	// GC after a successful write.
	CheckpointsDeleted int64 `json:"checkpoints_deleted"`
}

// Add folds o's counters into s.
func (s *FaultStats) Add(o FaultStats) {
	s.Injected += o.Injected
	s.Retries += o.Retries
	s.Backoff += o.Backoff
	s.DroppedRecords += o.DroppedRecords
	s.CorruptCheckpoints += o.CorruptCheckpoints
	s.CheckpointsDeleted += o.CheckpointsDeleted
}

// Any reports whether any counter is nonzero.
func (s FaultStats) Any() bool {
	return s != FaultStats{}
}

// String renders the counters as a compact key=value line for CLI
// output.
func (s FaultStats) String() string {
	return fmt.Sprintf("injected=%d retries=%d backoff=%v dropped=%d corrupt-checkpoints=%d ckpt-deleted=%d",
		s.Injected, s.Retries, s.Backoff.Round(time.Microsecond), s.DroppedRecords, s.CorruptCheckpoints,
		s.CheckpointsDeleted)
}

// FaultStatsProvider is implemented by resilient file-system wrappers
// (see internal/faults) that track their own counters; the engine and
// Graft query it structurally to plumb the numbers into Stats.
type FaultStatsProvider interface {
	FaultStats() FaultStats
}
