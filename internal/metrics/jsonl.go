package metrics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"graft/internal/pregel"
)

// JSONLSink streams metrics events as JSON Lines: one `job_start`
// line, one `superstep` line per barrier, one `job_end` line. The
// format is what `graft run -metrics-out` writes; it is append-only and
// valid mid-run, so a crashed job still leaves a parseable prefix.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// jsonlStart is the job_start event payload.
type jsonlStart struct {
	Event       string `json:"event"` // "job_start"
	JobID       string `json:"job_id"`
	Algorithm   string `json:"algorithm,omitempty"`
	NumWorkers  int    `json:"num_workers"`
	NumVertices int64  `json:"num_vertices"`
	NumEdges    int64  `json:"num_edges"`
}

// jsonlSuperstep is the superstep event payload.
type jsonlSuperstep struct {
	Event string `json:"event"` // "superstep"
	pregel.SuperstepStats
}

// jsonlEnd is the job_end event payload: the job's totals and its
// job-end record, as job.metrics has them.
type jsonlEnd struct {
	Event      string        `json:"event"` // "job_end"
	JobID      string        `json:"job_id"`
	Supersteps int           `json:"supersteps"`
	Reason     string        `json:"reason,omitempty"`
	Error      string        `json:"error,omitempty"`
	Totals     pregel.Totals `json:"totals"`
	pregel.JobEnd
}

func (s *JSONLSink) emit(v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// JobStart implements Sink.
func (s *JSONLSink) JobStart(jm *JobMetrics) {
	s.emit(jsonlStart{
		Event: "job_start", JobID: jm.JobID, Algorithm: jm.Algorithm,
		NumWorkers: jm.NumWorkers, NumVertices: jm.NumVertices, NumEdges: jm.NumEdges,
	})
}

// Superstep implements Sink.
func (s *JSONLSink) Superstep(jm *JobMetrics, ss pregel.SuperstepStats) {
	s.emit(jsonlSuperstep{Event: "superstep", SuperstepStats: ss})
}

// JobEnd implements Sink.
func (s *JSONLSink) JobEnd(jm *JobMetrics) {
	s.emit(jsonlEnd{
		Event: "job_end", JobID: jm.JobID, Supersteps: len(jm.Supersteps),
		Reason: jm.Reason, Error: jm.Error, Totals: jm.Totals, JobEnd: jm.JobEnd,
	})
	s.mu.Lock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Close flushes and closes the underlying writer (if closable).
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// volatileDropKeys are fields whose very presence varies run-to-run:
// anomaly events derive from timing-based skew, so one run may emit
// them where another stays quiet. Zeroing is not enough — the key is
// removed entirely. (The traffic matrix, by contrast, is a pure
// function of the graph and partitioning, so it stays.)
var volatileDropKeys = map[string]bool{
	"anomalies": true, "anomaly_counts": true,
}

// NormalizeJSONL rewrites a JSONL metrics stream with every
// timing-derived field (the table's Duration, Ratio and Gauge rows, and
// a recovery event's duration) zeroed and object keys sorted, leaving
// only the deterministic structure (supersteps, message counts,
// vertices, reasons, fault counters), so two runs of the same job
// compare byte-for-byte; the golden-file test relies on it.
func NormalizeJSONL(data []byte) ([]byte, error) {
	var out bytes.Buffer
	volatile := volatileKeys()
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %w", i+1, err)
		}
		scrubVolatile(v, volatile)
		b, err := json.Marshal(v) // map keys come out sorted at every depth
		if err != nil {
			return nil, err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
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
