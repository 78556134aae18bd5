package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Parent is the id of the span that caused it
// (noSpan for a root); Run groups the spans of one rep.
type span struct {
	ID     int
	Parent int
	Run    int
	Name   string
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

const noSpan = -1

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, which is how the untraced rounds run the same code.
// It is locked because the trace sink's drainer goroutines reach the
// file-system decorator while the coordinator opens superstep spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextRun starts a new run id: every span begun from now on carries it.
func (r *recorder) nextRun() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run++
	r.mu.Unlock()
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns the finished spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its direct children cover. The union matters:
// the sink's flusher goroutines write segments while the next
// superstep already runs, so sibling spans overlap.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped
// to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	at := lo
	for _, s := range spans {
		start, end := max(s.Start, at), min(s.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// layerSelfTimes sums self time by span name over the given spans.
func layerSelfTimes(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, one thread per run id), which chrome://tracing and Perfetto
// open directly.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Run,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
