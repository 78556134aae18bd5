package graft

import (
	"fmt"

	"graft/internal/algorithms"
	"graft/internal/core"
)

// JobSpec names a packaged-algorithm job: the body of `graft serve`'s
// POST /api/jobs and the eight `graft run` flags of the same names
// (-job is job_id). Both front ends start from DefaultJobSpec and turn
// the names into a job with Job, so one spec runs the same job through
// either; debugging it is one more name (debug) on the same spec.
type JobSpec struct {
	JobID   string `json:"job_id"`
	Alg     string `json:"alg"`
	Dataset string `json:"dataset"`
	// Scale sizes Dataset against the paper's graph: (0, 1].
	Scale float64 `json:"scale"`
	// Seed feeds the dataset generator, the randomized algorithms and
	// the debug presets; 0 is a seed like any other.
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	// Supersteps is the algorithm's argument (PageRank's rounds, a
	// random walk's length, the iteration bounds of matching and label
	// propagation), not an engine cap: a job stops where its algorithm
	// does, at its own safety bound at the latest.
	Supersteps int `json:"supersteps"`
	// Debug is a core.PresetConfig name; "none" runs without capture.
	Debug string `json:"debug"`
}

// DefaultJobSpec returns the defaults of both front ends: what a
// `graft run` flag or a POST key that is absent stands for.
func DefaultJobSpec() JobSpec {
	return JobSpec{
		Alg:        "cc",
		Dataset:    "soc-Epinions",
		Scale:      0.01,
		Seed:       algorithms.DefaultSeed,
		Workers:    4,
		Supersteps: algorithms.DefaultSupersteps,
		Debug:      "DC-sp",
	}
}

// Job resolves the spec's names: the packaged algorithm, built with
// Seed and Supersteps, and the RunOptions of the job (ID, worker count,
// debug preset, the Seed/Supersteps manifest metadata, a description).
// The dataset is the caller's to build: `graft run` also reads files,
// Session.SubmitSpec only names.
func (s JobSpec) Job() (*Algorithm, RunOptions, error) {
	// job.meta reads a zero budget as "not recorded", so a job has one.
	if s.Supersteps < 1 {
		return nil, RunOptions{}, fmt.Errorf("supersteps must be at least 1, got %d", s.Supersteps)
	}
	// Datasets are scaled stand-ins of the paper's graphs, and scale 1 is
	// the paper's size: the most a job may ask to build.
	if s.Scale <= 0 || s.Scale > 1 {
		return nil, RunOptions{}, fmt.Errorf("scale = %g, must be in (0, 1]", s.Scale)
	}
	alg, err := algorithms.ByName(s.Alg, s.Seed, s.Supersteps)
	if err != nil {
		return nil, RunOptions{}, err
	}
	dc, err := core.PresetConfig(s.Debug, s.Seed)
	if err != nil {
		return nil, RunOptions{}, err
	}
	return alg, RunOptions{
		JobID:       s.JobID,
		Description: fmt.Sprintf("dataset=%s scale=%g debug=%s", s.Dataset, s.Scale, s.Debug),
		Seed:        s.Seed,
		Supersteps:  s.Supersteps,
		Engine:      EngineConfig{NumWorkers: s.Workers},
		Debug:       dc,
	}, nil
}
