package anomaly

// SkewVerdict is the outcome of the shared one-superstep skew model:
// whether a superstep's imbalance crossed the threshold, along which
// dimension, and which worker is the culprit. The straggler-persistence
// detector counts streaks of the same verdict.
type SkewVerdict struct {
	Triggered bool
	// Dimension is "compute" or "message" ("" when not triggered).
	Dimension string
	// Worker is the overloaded worker: the straggler for compute skew,
	// the top sender for message skew; -1 when not triggered.
	Worker int
	// Skew is the triggering max/mean ratio.
	Skew float64
}

// EvaluateSkew applies the skew model to one superstep sample: compute
// skew at or above the threshold indicts the straggler; otherwise
// message skew at or above the threshold indicts the worker that sent
// the most messages (first of the maximum in worker order, so the
// verdict is deterministic). A non-positive threshold never triggers.
func EvaluateSkew(s Sample, threshold float64) SkewVerdict {
	none := SkewVerdict{Worker: -1}
	if threshold <= 0 {
		return none
	}
	if s.ComputeSkew >= threshold && s.Straggler >= 0 {
		return SkewVerdict{Triggered: true, Dimension: "compute", Worker: s.Straggler, Skew: s.ComputeSkew}
	}
	if s.MessageSkew >= threshold {
		var maxSent int64 = -1
		from := -1
		for _, w := range s.Workers {
			if w.Sent > maxSent {
				maxSent, from = w.Sent, w.Worker
			}
		}
		if from >= 0 {
			return SkewVerdict{Triggered: true, Dimension: "message", Worker: from, Skew: s.MessageSkew}
		}
	}
	return none
}
