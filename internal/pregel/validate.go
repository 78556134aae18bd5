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
	if c.NumWorkers > MaxNumWorkers {
		return invalidf("NumWorkers = %d, must be <= %d", c.NumWorkers, MaxNumWorkers)
	}
	if c.MaxSupersteps < 0 {
		return invalidf("MaxSupersteps = %d, must be >= 0 (0 means unlimited)", c.MaxSupersteps)
	}
	if c.CheckpointEvery < 0 {
		return invalidf("CheckpointEvery = %d, must be >= 0 (0 disables checkpointing)", c.CheckpointEvery)
	}
	if c.Partitioner != PartitionHash && c.Partitioner != PartitionLocality {
		return invalidf("Partitioner = %d, must be PartitionHash or PartitionLocality", int(c.Partitioner))
	}
	if c.CheckpointEvery > 0 && c.CheckpointFS == nil {
		return invalidf("CheckpointEvery = %d without CheckpointFS", c.CheckpointEvery)
	}
	return nil
}
