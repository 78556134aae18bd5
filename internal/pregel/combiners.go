package pregel

import "math"

// Standard message combiners mirroring Giraph's library. A combiner
// reduces network and memory pressure by merging messages addressed to
// the same vertex before delivery; algorithms that only need an
// associative reduction of their inbox (min label, sum of ranks)
// should install one.
//
// All five are values of one type, so the engine can recognise them:
// on the lane plane their messages are folded unboxed, by
// scalarCombiner.fold, into slot-addressed cells, and a Value is only
// made where one is owed (delivery, encoding). Combine is the same
// reduction on boxed operands, for every path that still holds boxes.

// scalarCombiner is a reduction over one fixed-width scalar message
// type. The zero value is "not a scalar combiner".
type scalarCombiner uint8

const (
	opMinLong scalarCombiner = iota + 1
	opMaxLong
	opSumLong
	opSumDouble // the double ops sort last: see double
	opMinDouble
)

var (
	// MinLongCombiner keeps the minimum LongValue message, as used by
	// connected components.
	MinLongCombiner Combiner = opMinLong
	// MaxLongCombiner keeps the maximum LongValue message.
	MaxLongCombiner Combiner = opMaxLong
	// SumLongCombiner sums LongValue messages.
	SumLongCombiner Combiner = opSumLong
	// SumDoubleCombiner sums DoubleValue messages, as used by PageRank.
	SumDoubleCombiner Combiner = opSumDouble
	// MinDoubleCombiner keeps the minimum DoubleValue message, as used by
	// single-source shortest paths.
	MinDoubleCombiner Combiner = opMinDouble
)

// double reports whether op reduces DoubleValues (LongValues otherwise).
func (op scalarCombiner) double() bool { return op >= opSumDouble }

// bits unboxes a message. A Value of the wrong type panics, which is a
// bug in the sending Compute and is reported as one.
func (op scalarCombiner) bits(v Value) uint64 {
	if op.double() {
		return math.Float64bits(float64(*v.(*DoubleValue)))
	}
	return uint64(*v.(*LongValue))
}

// box returns a fresh Value holding bits.
func (op scalarCombiner) box(bits uint64) Value {
	if op.double() {
		return NewDouble(math.Float64frombits(bits))
	}
	return NewLong(int64(bits))
}

// setBox overwrites a Value made by box.
func (op scalarCombiner) setBox(v Value, bits uint64) {
	if op.double() {
		*v.(*DoubleValue) = DoubleValue(math.Float64frombits(bits))
	} else {
		*v.(*LongValue) = LongValue(bits)
	}
}

// fold reduces two unboxed messages. Min and max return a unless b
// strictly beats it, so ties, signed zeros and NaNs resolve the way the
// boxed comparison does.
func (op scalarCombiner) fold(a, b uint64) uint64 {
	switch op {
	case opMinLong:
		if int64(b) < int64(a) {
			return b
		}
		return a
	case opMaxLong:
		if int64(b) > int64(a) {
			return b
		}
		return a
	case opSumLong:
		return a + b
	case opSumDouble:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	default: // opMinDouble
		if math.Float64frombits(b) < math.Float64frombits(a) {
			return b
		}
		return a
	}
}

// Combine implements Combiner on boxed operands: sums accumulate into a,
// min and max return whichever operand won.
func (op scalarCombiner) Combine(_ VertexID, a, b Value) Value {
	x, y := op.bits(a), op.bits(b)
	r := op.fold(x, y)
	if op == opSumLong || op == opSumDouble {
		op.setBox(a, r)
		return a
	}
	if r == x {
		return a
	}
	return b
}
