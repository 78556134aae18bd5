package anomaly

import (
	"strings"
	"testing"
)

// balanced returns a perfectly healthy sample: no skew, no straggler,
// even traffic, quiet resilience counters.
func balanced(superstep, workers int) Sample {
	s := Sample{
		Superstep:   superstep,
		ComputeSkew: 1.0,
		MessageSkew: 1.0,
		Straggler:   0,
		Sent:        int64(workers * workers * 10),
		Received:    int64(workers * workers * 10),
	}
	s.Traffic = make([][]int64, workers)
	for i := range s.Traffic {
		s.Traffic[i] = make([]int64, workers)
		for j := range s.Traffic[i] {
			s.Traffic[i][j] = 10
		}
	}
	return s
}

func observeAll(e *Engine, samples []Sample) []Event {
	var out []Event
	for _, s := range samples {
		out = append(out, e.Observe(s)...)
	}
	return out
}

func TestBalancedRunStaysQuiet(t *testing.T) {
	e := New()
	var samples []Sample
	for i := 0; i < 30; i++ {
		samples = append(samples, balanced(i, 4))
	}
	if evs := observeAll(e, samples); len(evs) != 0 {
		t.Fatalf("balanced run emitted %d events: %v", len(evs), evs)
	}
}

func TestStragglerPersistence(t *testing.T) {
	e := New()
	var evs []Event
	for i := 0; i < 7; i++ {
		s := balanced(i, 4)
		s.ComputeSkew = 2.0
		s.Straggler = 2
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 2 {
		t.Fatalf("expected events at runs 3 and 6, got %d: %v", len(evs), evs)
	}
	if evs[0].Kind != KindStragglerPersistence || evs[0].Superstep != 2 || evs[0].Worker != 2 {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[0].Severity != SevWarn || evs[1].Severity != SevCritical {
		t.Errorf("severities = %s, %s; want warn then critical", evs[0].Severity, evs[1].Severity)
	}
	if evs[1].Superstep != 5 || evs[1].Window != 6 {
		t.Errorf("second event = %+v", evs[1])
	}
}

func TestStragglerStreakResetsOnWorkerChange(t *testing.T) {
	e := New()
	var evs []Event
	for i := 0; i < 5; i++ {
		s := balanced(i, 4)
		s.ComputeSkew = 2.0
		s.Straggler = i % 2 // alternating stragglers never build a streak
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 0 {
		t.Fatalf("alternating stragglers should not fire, got %v", evs)
	}
}

func TestSkewTrend(t *testing.T) {
	e := New()
	skews := []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7}
	var evs []Event
	for i, k := range skews {
		s := balanced(i, 4)
		s.ComputeSkew = k
		s.Straggler = -1 // isolate the trend detector from the streak one
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 1 || evs[0].Kind != KindSkewTrend {
		t.Fatalf("expected one skew-trend event, got %v", evs)
	}
	if evs[0].Value != 1.7 || evs[0].Window != Window {
		t.Errorf("event = %+v", evs[0])
	}
}

func TestSkewTrendRequiresMonotonicRise(t *testing.T) {
	e := New()
	for i, k := range []float64{1.0, 1.1, 1.2, 1.4, 1.3, 1.5, 1.6, 1.7} { // dips in the middle
		s := balanced(i, 4)
		s.ComputeSkew = k
		s.Straggler = -1
		if evs := e.Observe(s); len(evs) != 0 {
			t.Fatalf("non-monotonic rise fired at step %d: %v", i, evs)
		}
	}
}

func TestCombineCollapse(t *testing.T) {
	e := New()
	var evs []Event
	for i := 0; i < 5; i++ {
		s := balanced(i, 4)
		s.Sent = 100
		s.Combined = 60
		if i == 4 {
			s.Combined = 5 // ratio collapses from 0.6 to 0.05
		}
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 1 || evs[0].Kind != KindCombineCollapse {
		t.Fatalf("expected one combine-collapse event, got %v", evs)
	}
	if evs[0].Worker != -1 || evs[0].Value != 0.05 {
		t.Errorf("event = %+v", evs[0])
	}
}

func TestCombineCollapseIgnoresNeverCombiningJobs(t *testing.T) {
	e := New()
	for i := 0; i < 10; i++ {
		s := balanced(i, 4)
		s.Sent = 100
		s.Combined = 0 // combiner never earned anything: mean below floor
		if evs := e.Observe(s); len(evs) != 0 {
			t.Fatalf("no-combine job fired at step %d: %v", i, evs)
		}
	}
}

func TestTrafficHotspotLane(t *testing.T) {
	e := New()
	s := balanced(0, 4)
	for i := range s.Traffic {
		for j := range s.Traffic[i] {
			s.Traffic[i][j] = 1
		}
	}
	s.Traffic[1][2] = 84 // one lane carries 84 of 99 messages
	evs := e.Observe(s)
	if len(evs) != 1 || evs[0].Kind != KindTrafficHotspot {
		t.Fatalf("expected one traffic-hotspot event, got %v", evs)
	}
	ev := evs[0]
	if ev.Worker != 2 || ev.Peer != 1 {
		t.Errorf("lane endpoints = worker %d peer %d, want 2 and 1", ev.Worker, ev.Peer)
	}
	if ev.Severity != SevCritical { // 84/99 ≈ 0.85 ≥ 0.75
		t.Errorf("severity = %s, want critical", ev.Severity)
	}
}

func TestTrafficHotspotReceiverColumn(t *testing.T) {
	e := New()
	s := balanced(0, 4)
	for i := range s.Traffic {
		for j := range s.Traffic[i] {
			s.Traffic[i][j] = 0
		}
		s.Traffic[i][3] = 25 // everyone floods partition 3
	}
	evs := e.Observe(s)
	if len(evs) != 1 || evs[0].Worker != 3 || evs[0].Peer != -1 {
		t.Fatalf("expected receiver-column hotspot on worker 3, got %v", evs)
	}
}

func TestTrafficHotspotIgnoresTinyTraffic(t *testing.T) {
	e := New()
	s := balanced(0, 4)
	for i := range s.Traffic {
		for j := range s.Traffic[i] {
			s.Traffic[i][j] = 0
		}
	}
	s.Traffic[0][1] = 10 // 100% share but only 10 messages
	if evs := e.Observe(s); len(evs) != 0 {
		t.Fatalf("tiny traffic fired: %v", evs)
	}
}

func TestFaultSpike(t *testing.T) {
	e := New()
	counts := []int64{0, 0, 1, 3}
	var evs []Event
	for i, c := range counts {
		s := balanced(i, 4)
		s.CorruptCheckpoints = c
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 1 || evs[0].Kind != KindFaultSpike {
		t.Fatalf("expected one fault-spike event, got %v", evs)
	}
	if evs[0].Value != 3 || evs[0].Superstep != 3 {
		t.Errorf("event = %+v", evs[0])
	}
}

func TestRecoveryStorm(t *testing.T) {
	e := New()
	recs := []int{0, 1, 2}
	var evs []Event
	for i, rc := range recs {
		s := balanced(i, 4)
		s.Recoveries = rc
		evs = append(evs, e.Observe(s)...)
	}
	if len(evs) != 1 || evs[0].Kind != KindRecoveryStorm {
		t.Fatalf("expected one recovery-storm event, got %v", evs)
	}
}

// TestActionsNameRealRemedies fires every detector and checks that no
// suggested action points at something the system does not have: a
// rebalancer (placement is fixed at load, so the remedies are the
// profiler's breakdown and input placement), an outbox log (every
// recovery is a checkpoint restart), or a recovery-budget flag.
func TestActionsNameRealRemedies(t *testing.T) {
	var evs []Event
	e := New()
	for i, k := range []float64{1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3} { // rising and hot: trend and streak
		s := balanced(i, 4)
		s.ComputeSkew, s.Straggler = k, 2
		evs = append(evs, e.Observe(s)...)
	}
	e = New()
	for i := 0; i < 5; i++ {
		s := balanced(i, 4)
		s.Sent, s.Combined = 100, 60
		if i == 4 {
			s.Combined = 5
			s.Traffic[1][2] = 500
		}
		s.CorruptCheckpoints = int64(i * i)
		s.Recoveries = i
		evs = append(evs, e.Observe(s)...)
	}
	fired := map[Kind]bool{}
	for _, ev := range evs {
		fired[ev.Kind] = true
		for _, gone := range []string{"rebalanc", "outbox", "max-recoveries"} {
			if strings.Contains(strings.ToLower(ev.Action), gone) {
				t.Errorf("%s action names %q, which does not exist: %q", ev.Kind, gone, ev.Action)
			}
		}
	}
	for _, k := range []Kind{KindStragglerPersistence, KindSkewTrend, KindCombineCollapse,
		KindTrafficHotspot, KindFaultSpike, KindRecoveryStorm} {
		if !fired[k] {
			t.Errorf("%s never fired; its action went unchecked", k)
		}
	}
}

func TestEvaluateSkew(t *testing.T) {
	s := balanced(0, 4)
	s.ComputeSkew = 2.0
	s.Straggler = 1
	v := EvaluateSkew(s, 1.5)
	if !v.Triggered || v.Worker != 1 || v.Skew != 2.0 {
		t.Errorf("compute verdict = %+v", v)
	}

	if v := EvaluateSkew(balanced(0, 4), 1.5); v.Triggered {
		t.Errorf("balanced sample triggered: %+v", v)
	}
	if v := EvaluateSkew(s, 0); v.Triggered {
		t.Errorf("zero threshold triggered: %+v", v)
	}
}
