package pregel

import (
	"errors"
	"testing"
)

func TestValidateRejectsNegatives(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"MaxSupersteps", Config{MaxSupersteps: -1}},
		{"CheckpointEvery", Config{CheckpointEvery: -3}},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestValidateRejectsContradictions(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"CheckpointEvery without CheckpointFS", Config{CheckpointEvery: 2}},
		{"NumWorkers over MaxNumWorkers", Config{NumWorkers: MaxNumWorkers + 1}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: err = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestValidateAcceptsZeroValues(t *testing.T) {
	var cfg Config
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	cfg.NumWorkers = MaxNumWorkers
	if err := cfg.Validate(); err != nil {
		t.Errorf("MaxNumWorkers rejected: %v", err)
	}
}

// TestInvalidConfigSurfacesThroughRun pins that a Job built on a
// contradictory config fails with the typed error (and still fires the
// listener's JobFinished, like any other job failure).
func TestInvalidConfigSurfacesThroughRun(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, nil)
	job := NewJob(g, ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		v.VoteToHalt()
		return nil
	}), Config{NumWorkers: 1, MaxSupersteps: -1})
	stats, err := job.Run()
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
	if stats != nil {
		t.Errorf("stats = %+v, want nil on config error", stats)
	}
}
