// Package anomaly is Graft's detection layer: a fixed set of
// detectors evaluated once per superstep over a sliding window of the
// engine's folded telemetry (skew indicators, straggler identity,
// message counters, the inter-partition traffic matrix, and the
// cumulative resilience counters). Detectors emit structured Events —
// kind, severity, offending worker, evidence values and a suggested
// action — that flow into pregel.Stats, the metrics registry and its
// document, the GUI metrics page, and `graft run` output.
//
// The package is deliberately dependency-free so the pregel engine can
// import it: the engine feeds Samples at each barrier.
//
// Detection is always on and coordinator-side only — one Observe call
// per superstep over a handful of floats plus a W×W matrix scan — so
// its cost is independent of graph size and is inside every bench/
// number.
package anomaly

import "fmt"

// Kind identifies a detector / event family.
type Kind string

const (
	// KindStragglerPersistence: the same worker has been the superstep
	// straggler, with hot compute skew, for several consecutive steps.
	KindStragglerPersistence Kind = "straggler-persistence"
	// KindSkewTrend: compute or message skew rising monotonically
	// across the whole window.
	KindSkewTrend Kind = "skew-trend"
	// KindCombineCollapse: the combine ratio dropped to a fraction of
	// its window mean — the combiner stopped earning its keep.
	KindCombineCollapse Kind = "combine-collapse"
	// KindTrafficHotspot: one lane, sender row, or receiver column of
	// the traffic matrix carries an outsized share of the superstep's
	// messages.
	KindTrafficHotspot Kind = "traffic-hotspot"
	// KindFaultSpike: the cumulative count of corrupt checkpoints
	// skipped during recovery jumped within the window.
	KindFaultSpike Kind = "fault-spike"
	// KindRecoveryStorm: several recoveries within the window.
	KindRecoveryStorm Kind = "recovery-storm"
)

// Severity grades an event.
type Severity string

const (
	SevInfo     Severity = "info"
	SevWarn     Severity = "warn"
	SevCritical Severity = "critical"
)

// Event is one structured anomaly: what was detected, where, and the
// evidence behind the verdict.
type Event struct {
	Kind      Kind     `json:"kind"`
	Severity  Severity `json:"severity"`
	Superstep int      `json:"superstep"`
	// Worker is the offending worker/partition, or -1 for job-wide
	// events (combine collapse, fault spikes, recovery storms).
	Worker int `json:"worker"`
	// Peer is the second endpoint for lane-level events (the sender of
	// a hot lane whose receiver is Worker); -1 otherwise.
	Peer int `json:"peer"`
	// Value is the primary evidence value (skew ratio, traffic share,
	// counter delta) and Threshold what it was compared against.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Window is how many supersteps of evidence back the verdict.
	Window int `json:"window"`
	// Detail is the human-readable evidence line; Action the suggested
	// mitigation.
	Detail string `json:"detail"`
	Action string `json:"action"`
}

// String renders an event as the CLI prints it.
func (e Event) String() string {
	where := "job"
	if e.Worker >= 0 {
		where = fmt.Sprintf("worker %d", e.Worker)
	}
	return fmt.Sprintf("[%s] %s @superstep %d (%s): %s", e.Severity, e.Kind, e.Superstep, where, e.Detail)
}

// Sample is the telemetry of one finished superstep, as the engine
// folds it at the barrier. Counter fields ending in "cumulative" hold
// job-lifetime totals; detectors difference them across the window.
type Sample struct {
	Superstep   int
	ComputeSkew float64
	MessageSkew float64
	// Straggler is the slowest worker this superstep, -1 if unknown.
	Straggler int
	// Sent/Received/Combined are this superstep's message counters
	// (Sent is pre-combine).
	Sent, Received, Combined int64
	// Traffic is the numWorkers×numWorkers message-flow matrix
	// (Traffic[s][d] = messages partition s sent to partition d,
	// pre-combine), snapshotted by the engine at every barrier.
	Traffic [][]int64
	// Recoveries is the cumulative recovery count so far.
	Recoveries int
	// CorruptCheckpoints is the cumulative count of checkpoints skipped
	// during recovery because they were truncated or failed to decode.
	CorruptCheckpoints int64
}

// The detectors' thresholds. Every run uses these values; there is no
// per-job setting.
const (
	// Window is the sliding-window size in supersteps.
	Window = 8
	// StragglerRuns is how many consecutive supersteps the same worker
	// must be the hot straggler before straggler-persistence fires.
	StragglerRuns = 3
	// SkewHot is the skew ratio (max/mean) at which a worker counts as
	// hot for the straggler and trend detectors, and at which the GUI
	// dashboard colours a superstep and its straggler.
	SkewHot = 1.5
	// HotspotShare is the fraction of a superstep's traffic a single
	// lane, row or column must carry to count as a hotspot. An axis must
	// also carry at least twice its balanced share, so small clusters
	// cannot trip the detector on even traffic.
	HotspotShare = 0.5
	// HotspotMinMessages is the minimum superstep traffic before the
	// hotspot detector looks at shares at all.
	HotspotMinMessages = 64
	// CombineDropRatio: combine-collapse fires when the current combine
	// ratio falls below CombineDropRatio × the window mean, provided the
	// mean was at least CombineFloor.
	CombineDropRatio = 0.5
	CombineFloor     = 0.2
	// FaultSpikeMin is the corrupt-checkpoint delta within one window
	// that counts as a spike.
	FaultSpikeMin = 2
	// StormRecoveries is the recovery count within one window that counts
	// as a storm.
	StormRecoveries = 2
)

// detector is one check, called once per Observe with the current
// window (oldest sample first, newest last — never empty). Detectors
// may keep state across calls (streaks, emission gates); they run on
// the engine's coordinator goroutine, never concurrently.
type detector interface {
	Observe(win []Sample) []Event
}

// Engine evaluates the detector catalog over a sliding window of
// samples. Not safe for concurrent use: feed it from one goroutine
// (the pregel engine calls Observe at the barrier).
type Engine struct {
	win  []Sample
	dets []detector
}

// New builds an engine with the standard detector catalog.
func New() *Engine {
	return &Engine{dets: []detector{
		&stragglerPersistence{worker: -1},
		&skewTrend{lastEmit: neverEmitted},
		&combineCollapse{lastEmit: neverEmitted},
		&trafficHotspot{lastEmit: neverEmitted},
		&faultSpike{lastEmit: neverEmitted},
		&recoveryStorm{lastEmit: neverEmitted},
	}}
}

// Observe folds one superstep sample into the window and runs every
// detector, returning the events emitted at this superstep (nil when
// quiet).
func (e *Engine) Observe(s Sample) []Event {
	e.win = append(e.win, s)
	if len(e.win) > Window {
		e.win = e.win[1:]
	}
	var out []Event
	for _, d := range e.dets {
		out = append(out, d.Observe(e.win)...)
	}
	return out
}
