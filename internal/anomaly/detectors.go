package anomaly

import "fmt"

// neverEmitted initializes an emission gate so the first qualifying
// superstep always fires regardless of window size.
const neverEmitted = -1 << 30

// stragglerPersistence fires when the same worker stays the hot
// straggler — EvaluateSkew's compute verdict — for StragglerRuns
// consecutive supersteps. It re-fires every StragglerRuns steps while
// the streak holds, escalating to critical at twice the run length: a
// straggler that persists is placement, not noise.
type stragglerPersistence struct {
	worker int // worker of the current streak
	run    int // its length in supersteps
}

func (d *stragglerPersistence) Observe(win []Sample) []Event {
	s := win[len(win)-1]
	v := EvaluateSkew(s, SkewHot)
	if !v.Triggered {
		d.worker, d.run = -1, 0
		return nil
	}
	if v.Worker != d.worker {
		d.worker, d.run = v.Worker, 0
	}
	d.run++
	if d.run < StragglerRuns || (d.run-StragglerRuns)%StragglerRuns != 0 {
		return nil
	}
	sev := SevWarn
	if d.run >= 2*StragglerRuns {
		sev = SevCritical
	}
	return []Event{{
		Kind: KindStragglerPersistence, Severity: sev, Superstep: s.Superstep,
		Worker: v.Worker, Peer: -1,
		Value: v.Skew, Threshold: SkewHot, Window: d.run,
		Detail: fmt.Sprintf("worker %d slowest for %d consecutive supersteps (compute skew %.2f)",
			v.Worker, d.run, v.Skew),
		Action: "open the profiler's per-worker breakdown for the straggler; " +
			"if it holds the hubs, place the input with -partitioner locality or a different -workers count",
	}}
}

// skewTrend fires when compute or message skew has risen strictly
// monotonically across the whole window and ends hot: imbalance that is
// getting worse, not a one-superstep blip. One event per dimension,
// re-armed after a full window.
type skewTrend struct{ lastEmit int }

func (d *skewTrend) Observe(win []Sample) []Event {
	if len(win) < Window {
		return nil
	}
	s := win[len(win)-1]
	if s.Superstep-d.lastEmit < Window {
		return nil
	}
	var evs []Event
	for _, dim := range []struct {
		name string
		get  func(Sample) float64
	}{
		{"compute", func(s Sample) float64 { return s.ComputeSkew }},
		{"message", func(s Sample) float64 { return s.MessageSkew }},
	} {
		rising := dim.get(win[len(win)-1]) >= SkewHot
		for i := 1; rising && i < len(win); i++ {
			rising = dim.get(win[i]) > dim.get(win[i-1])
		}
		if !rising {
			continue
		}
		evs = append(evs, Event{
			Kind: KindSkewTrend, Severity: SevWarn, Superstep: s.Superstep,
			Worker: s.Straggler, Peer: -1,
			Value: dim.get(s), Threshold: SkewHot, Window: len(win),
			Detail: fmt.Sprintf("%s skew rose monotonically over %d supersteps to %.2f",
				dim.name, len(win), dim.get(s)),
			Action: "open the profiler's per-worker breakdown for the growing partition; " +
				"if its share keeps rising, place the input with -partitioner locality or a different -workers count",
		})
	}
	if len(evs) > 0 {
		d.lastEmit = s.Superstep
	}
	return evs
}

// combineCollapse fires when the combine ratio (combined/sent) of the
// newest superstep drops below CombineDropRatio × the window mean,
// given the combiner had been earning at least CombineFloor: a phase
// change where sender-side combining stopped helping, usually because
// the fan-in pattern changed.
type combineCollapse struct{ lastEmit int }

func (d *combineCollapse) Observe(win []Sample) []Event {
	s := win[len(win)-1]
	if s.Sent == 0 || s.Superstep-d.lastEmit < Window {
		return nil
	}
	var sum float64
	n := 0
	for _, p := range win[:len(win)-1] {
		if p.Sent == 0 {
			continue
		}
		sum += float64(p.Combined) / float64(p.Sent)
		n++
	}
	if n < 3 {
		return nil // not enough history to call a mean
	}
	mean := sum / float64(n)
	cur := float64(s.Combined) / float64(s.Sent)
	if mean < CombineFloor || cur >= mean*CombineDropRatio {
		return nil
	}
	d.lastEmit = s.Superstep
	return []Event{{
		Kind: KindCombineCollapse, Severity: SevWarn, Superstep: s.Superstep,
		Worker: -1, Peer: -1,
		Value: cur, Threshold: mean * CombineDropRatio, Window: n,
		Detail: fmt.Sprintf("combine ratio fell to %.2f against a window mean of %.2f", cur, mean),
		Action: "the algorithm phase stopped producing combinable messages; expect higher message volume and consider phase-aware combining",
	}}
}

// trafficHotspot fires when one cell, sender row, or receiver column of
// the traffic matrix carries at least HotspotShare of the superstep's
// messages and at least twice its balanced share. At most one event per
// superstep, preferring the most specific axis (lane, then receiver
// column, then sender row).
type trafficHotspot struct{ lastEmit int }

func (d *trafficHotspot) Observe(win []Sample) []Event {
	s := win[len(win)-1]
	w := len(s.Traffic)
	if w < 2 || s.Superstep-d.lastEmit < Window {
		return nil
	}
	var total, maxLane int64
	ls, ld := -1, -1
	rows := make([]int64, w)
	cols := make([]int64, w)
	for i := range s.Traffic {
		for j, n := range s.Traffic[i] {
			total += n
			rows[i] += n
			cols[j] += n
			if n > maxLane {
				maxLane, ls, ld = n, i, j
			}
		}
	}
	if total < HotspotMinMessages {
		return nil
	}
	hot := func(n int64, fair float64) (float64, bool) {
		share := float64(n) / float64(total)
		return share, share >= HotspotShare && share >= 2*fair
	}
	emit := func(worker, peer int, share float64, detail string) []Event {
		d.lastEmit = s.Superstep
		sev := SevWarn
		if share >= 0.75 {
			sev = SevCritical
		}
		return []Event{{
			Kind: KindTrafficHotspot, Severity: sev, Superstep: s.Superstep,
			Worker: worker, Peer: peer,
			Value: share, Threshold: HotspotShare, Window: 1,
			Detail: detail,
			Action: "check the heatmap for the hot partition; a hub vertex or skewed hash may need a combiner or custom partitioning",
		}}
	}
	fairAxis := 1 / float64(w)
	if share, ok := hot(maxLane, fairAxis/float64(w)); ok {
		return emit(ld, ls, share, fmt.Sprintf(
			"lane %d→%d carries %.0f%% of this superstep's %d messages", ls, ld, share*100, total))
	}
	for j, n := range cols {
		if share, ok := hot(n, fairAxis); ok {
			return emit(j, -1, share, fmt.Sprintf(
				"partition %d receives %.0f%% of this superstep's %d messages", j, share*100, total))
		}
	}
	for i, n := range rows {
		if share, ok := hot(n, fairAxis); ok {
			return emit(i, -1, share, fmt.Sprintf(
				"partition %d sends %.0f%% of this superstep's %d messages", i, share*100, total))
		}
	}
	return nil
}

// faultSpike fires when the cumulative corrupt-checkpoint count jumped
// by FaultSpikeMin or more within one window: storage is degrading
// faster than background noise.
type faultSpike struct{ lastEmit int }

func (d *faultSpike) Observe(win []Sample) []Event {
	if len(win) < 2 {
		return nil
	}
	s := win[len(win)-1]
	delta := s.CorruptCheckpoints - win[0].CorruptCheckpoints
	if delta < FaultSpikeMin || s.Superstep-d.lastEmit < Window {
		return nil
	}
	d.lastEmit = s.Superstep
	return []Event{{
		Kind: KindFaultSpike, Severity: SevCritical, Superstep: s.Superstep,
		Worker: -1, Peer: -1,
		Value: float64(delta), Threshold: float64(FaultSpikeMin), Window: len(win),
		Detail: fmt.Sprintf("%d corrupt checkpoints within %d supersteps", delta, len(win)),
		Action: "inspect the DFS quarantine and checkpoint health; replace the failing replica before recovery runs out of intact checkpoints",
	}}
}

// recoveryStorm fires when StormRecoveries or more recoveries happened
// within one window: the job is thrashing between failure and recovery
// instead of making progress.
type recoveryStorm struct{ lastEmit int }

func (d *recoveryStorm) Observe(win []Sample) []Event {
	if len(win) < 2 {
		return nil
	}
	s := win[len(win)-1]
	delta := s.Recoveries - win[0].Recoveries
	if delta < StormRecoveries || s.Superstep-d.lastEmit < Window {
		return nil
	}
	d.lastEmit = s.Superstep
	return []Event{{
		Kind: KindRecoveryStorm, Severity: SevCritical, Superstep: s.Superstep,
		Worker: -1, Peer: -1,
		Value: float64(delta), Threshold: float64(StormRecoveries), Window: len(win),
		Detail: fmt.Sprintf("%d recoveries within %d supersteps", delta, len(win)),
		Action: "find the failing worker before rerunning; a job gets three restarts, and repeated rollbacks suggest a deterministic crash or bad host",
	}}
}
