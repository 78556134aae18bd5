package pregel

import (
	"errors"
	"fmt"
)

// ErrInvalidConfig is the sentinel every Config validation failure
// wraps, so callers can branch with errors.Is while the message still
// names the offending field.
var ErrInvalidConfig = errors.New("pregel: invalid config")

// invalidf builds one validation failure wrapping ErrInvalidConfig.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// Validate rejects configurations that are contradictory or would fail
// at runtime in a harder-to-diagnose way. Zero values are never
// rejected — they mean "use the default" — but explicitly negative
// capacities and impossible mode combinations return a typed error
// wrapping ErrInvalidConfig instead of being silently coerced.
func (c *Config) Validate() error {
	if c.MaxSupersteps < 0 {
		return invalidf("MaxSupersteps = %d, must be >= 0 (0 means unlimited)", c.MaxSupersteps)
	}
	if c.CheckpointEvery < 0 {
		return invalidf("CheckpointEvery = %d, must be >= 0 (0 disables checkpointing)", c.CheckpointEvery)
	}
	if c.RebalanceSkew < 0 {
		return invalidf("RebalanceSkew = %g, must be >= 0 (0 disables rebalancing)", c.RebalanceSkew)
	}
	if c.RebalanceMaxMoves < 0 {
		return invalidf("RebalanceMaxMoves = %d, must be >= 0 (0 means the default)", c.RebalanceMaxMoves)
	}
	if c.ComputeMode != ModeVertex && c.ComputeMode != ModeSubgraph {
		return invalidf("ComputeMode = %d, must be ModeVertex or ModeSubgraph", int(c.ComputeMode))
	}
	if c.Partitioner != PartitionHash && c.Partitioner != PartitionLocality {
		return invalidf("Partitioner = %d, must be PartitionHash or PartitionLocality", int(c.Partitioner))
	}
	if c.RebalanceObjective != ObjectiveSkew && c.RebalanceObjective != ObjectiveEdgeCut {
		return invalidf("RebalanceObjective = %d, must be ObjectiveSkew or ObjectiveEdgeCut", int(c.RebalanceObjective))
	}
	if c.RebalanceObjective == ObjectiveEdgeCut && c.AnomalyWindow < 0 {
		return invalidf("RebalanceObjective = edgecut requires the traffic matrix (AnomalyWindow must be >= 0)")
	}
	if c.CheckpointEvery > 0 && c.CheckpointFS == nil {
		return invalidf("CheckpointEvery = %d without CheckpointFS", c.CheckpointEvery)
	}
	if c.Recovery == RecoveryLog && c.MsgLogFS == nil {
		return invalidf("Recovery = log requires MsgLogFS")
	}
	return nil
}
