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

// JSONLSink streams a job's metrics events as JSON Lines: one
// `job_start` line, one `superstep` line per barrier as it ran (a
// superstep re-executed after a checkpoint restart has a line per run),
// and one `job_end` line that folds the job's committed history. It is
// a pregel.JobListener, installed beside the job's registry (`graft
// run -metrics-out` sets it as the engine listener).
// The format is append-only and valid mid-run, so a crashed job still
// leaves a parseable prefix. Callbacks arrive on the coordinator
// goroutine; the mutex shields Close and Err.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error

	jobID, algorithm string
}

// NewJSONLSink streams the events of job jobID (running algorithm) to
// w. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer, jobID, algorithm string) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w), jobID: jobID, algorithm: algorithm}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// jsonlStart is the job_start event payload.
type jsonlStart struct {
	Event     string `json:"event"` // "job_start"
	JobID     string `json:"job_id"`
	Algorithm string `json:"algorithm,omitempty"`
	pregel.JobInfo
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

// JobStarted implements pregel.JobListener.
func (s *JSONLSink) JobStarted(info pregel.JobInfo) {
	s.emit(jsonlStart{Event: "job_start", JobID: s.jobID, Algorithm: s.algorithm, JobInfo: info})
}

// SuperstepStarted implements pregel.JobListener.
func (s *JSONLSink) SuperstepStarted(int, pregel.SuperstepInfo) {}

// SuperstepFinished implements pregel.JobListener.
func (s *JSONLSink) SuperstepFinished(_ int, ss pregel.SuperstepStats) {
	s.emit(jsonlSuperstep{Event: "superstep", SuperstepStats: ss})
}

// JobFinished implements pregel.JobListener: it writes the job_end
// line and flushes.
func (s *JSONLSink) JobFinished(stats *pregel.Stats, err error) {
	end := jsonlEnd{Event: "job_end", JobID: s.jobID}
	if stats != nil {
		end.Supersteps = len(stats.PerSuperstep)
		end.Totals = stats.Totals()
		end.JobEnd = stats.JobEnd
		end.Reason = stats.Reason.String()
	}
	if err != nil {
		end.Error = err.Error()
	}
	s.emit(end)
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
