package metrics

import (
	"encoding/json"
	"errors"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// ErrNoMetrics is returned by ReadJobMetrics when a job was traced
// without the metrics layer (older traces).
var ErrNoMetrics = errors.New("metrics: job has no metrics file")

// WriteJobMetrics persists a job's metrics next to its trace files
// (trace.Store.MetricsPath gives the conventional location), so the
// GUI dashboard can render runs long after the process that produced
// them exited.
func WriteJobMetrics(fs dfs.FileSystem, path string, jm JobMetrics) error {
	b, err := json.MarshalIndent(jm, "", "  ")
	if err != nil {
		return err
	}
	return dfs.WriteFile(fs, path, b)
}

// ReadJobMetrics loads a persisted job metrics file.
func ReadJobMetrics(fs dfs.FileSystem, path string) (JobMetrics, error) {
	var jm JobMetrics
	raw, err := dfs.ReadFile(fs, path)
	if errors.Is(err, dfs.ErrNotExist) {
		return jm, ErrNoMetrics
	}
	if err != nil {
		return jm, err
	}
	err = json.Unmarshal(raw, &jm)
	// Totals are folded from the rows when written, so refolding
	// changes nothing in a current file and restores the totals of one
	// written before they took the per-superstep keys.
	jm.Totals = pregel.Fold(jm.Supersteps)
	return jm, err
}
