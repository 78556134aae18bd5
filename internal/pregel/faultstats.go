package pregel

import (
	"fmt"
	"time"
)

// FaultStats aggregates the storage-resilience counters of one job:
// what the fault-injection layer threw at it and how the retry layer
// absorbed it. The engine counts CorruptCheckpoints and
// CheckpointsDeleted itself and Graft adds DroppedRecords; the job's
// metrics registry folds in the storage layers' own counters once, at
// JobFinished, summed over the distinct layers of the job's checkpoint
// and trace stores (dfs.Layers). All counters are zero for a run on
// healthy storage.
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

// Sub takes o's counters out of s.
func (s *FaultStats) Sub(o FaultStats) {
	s.Add(FaultStats{-o.Injected, -o.Retries, -o.Backoff, -o.DroppedRecords, -o.CorruptCheckpoints, -o.CheckpointsDeleted})
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
// (see internal/faults), each reporting only its own counters, not
// those of the layers it wraps, and by a Graft session (the trace
// records it dropped).
type FaultStatsProvider interface {
	FaultStats() FaultStats
}
