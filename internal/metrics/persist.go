package metrics

import (
	"encoding/json"
	"errors"
	"fmt"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// ErrNoMetrics is returned by ReadJobMetrics when a job was traced
// without the metrics layer (older traces).
var ErrNoMetrics = errors.New("metrics: job has no metrics file")

// MarshalJobMetrics is the one encoding of a job's telemetry: the bytes
// of job.metrics, of GET /metrics and of `graft run -metrics-out`.
func MarshalJobMetrics(jm JobMetrics) ([]byte, error) {
	return json.MarshalIndent(jm, "", "  ")
}

// WriteJobMetrics persists a job's metrics next to its trace files
// (trace.Store.MetricsPath gives the conventional location), so the
// GUI dashboard can render runs long after the process that produced
// them exited.
func WriteJobMetrics(fs dfs.FileSystem, path string, jm JobMetrics) error {
	b, err := MarshalJobMetrics(jm)
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

// volatileDropKeys are fields whose very presence varies run-to-run:
// anomaly events derive from timing-based skew, so one run may emit
// them where another stays quiet. Zeroing is not enough — the key is
// removed entirely. (The traffic matrix, by contrast, is a pure
// function of the graph and partitioning, so it stays.)
var volatileDropKeys = map[string]bool{
	"anomalies": true, "anomaly_counts": true,
}

// NormalizeJSONL rewrites one JobMetrics document as a single JSON line
// with every timing-derived field (the table's Duration, Ratio and
// Gauge rows, a recovery event's duration and the storage retries'
// backoff) zeroed and object keys sorted, leaving only the
// deterministic structure (supersteps, message counts, vertices,
// reasons, fault counters), so two runs of the same job compare
// byte-for-byte; the golden-file test relies on it.
func NormalizeJSONL(doc []byte) ([]byte, error) {
	var v map[string]any
	if err := json.Unmarshal(doc, &v); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	scrubVolatile(v, volatileKeys())
	b, err := json.Marshal(v) // map keys come out sorted at every depth
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func scrubVolatile(v any, volatile map[string]bool) {
	switch vv := v.(type) {
	case map[string]any:
		for k, val := range vv {
			if volatile[k] {
				vv[k] = 0
				continue
			}
			if volatileDropKeys[k] {
				delete(vv, k)
				continue
			}
			scrubVolatile(val, volatile)
		}
	case []any:
		for _, e := range vv {
			scrubVolatile(e, volatile)
		}
	}
}
