package anomaly

// SkewVerdict is the outcome of the one-superstep skew model: whether a
// superstep's compute imbalance crossed the threshold, and which worker
// is the straggler. The straggler-persistence detector counts streaks
// of the same verdict.
type SkewVerdict struct {
	Triggered bool
	// Worker is the straggler; -1 when not triggered.
	Worker int
	// Skew is the triggering max/mean compute ratio.
	Skew float64
}

// EvaluateSkew applies the skew model to one superstep sample: compute
// skew at or above the threshold indicts the straggler. A non-positive
// threshold never triggers.
func EvaluateSkew(s Sample, threshold float64) SkewVerdict {
	if threshold <= 0 || s.ComputeSkew < threshold || s.Straggler < 0 {
		return SkewVerdict{Worker: -1}
	}
	return SkewVerdict{Triggered: true, Worker: s.Straggler, Skew: s.ComputeSkew}
}
