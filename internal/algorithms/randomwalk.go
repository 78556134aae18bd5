package algorithms

import (
	"fmt"

	"graft/internal/pregel"
)

// Random walk simulation (the paper's RW algorithm, §4.2, from the GPS
// paper): every vertex starts with InitialWalkers walkers; each
// superstep a vertex routes each of its walkers to a uniformly random
// out-neighbor by incrementing a per-neighbor counter, then sends each
// counter to its neighbor. The vertex value is its current walker
// count.
//
// The buggy 16-bit variant declares the counters and messages as
// 16-bit integers "to optimize the memory and network I/O": when more
// than 32767 walkers move along one edge the counter wraps negative,
// exactly like the Java short overflow the paper debugs with a
// message-value constraint.

// InitialWalkers is the paper's per-vertex starting walker count.
const InitialWalkers = 100

// RWMessage is the per-edge walker counter. Wide is the correct 64-bit
// counter; the buggy variant stores through Short so arithmetic wraps
// at 16 bits.
type RWMessage struct {
	// Sixteen selects the overflowing representation.
	Sixteen bool
	// Short is the 16-bit counter (buggy variant).
	Short int16
	// Wide is the 64-bit counter (fixed variant).
	Wide int64
}

func (*RWMessage) TypeName() string { return "rw-msg" }

// Count returns the counter value as the receiver interprets it.
func (m *RWMessage) Count() int64 {
	if m.Sixteen {
		return int64(m.Short)
	}
	return m.Wide
}

func (m *RWMessage) Encode(e *pregel.Encoder) {
	e.PutBool(m.Sixteen)
	if m.Sixteen {
		e.PutVarint(int64(m.Short))
	} else {
		e.PutVarint(m.Wide)
	}
}

func (m *RWMessage) Decode(d *pregel.Decoder) error {
	m.Sixteen = d.Bool()
	if m.Sixteen {
		m.Short = int16(d.VarintBits(16))
	} else {
		m.Wide = d.Varint()
	}
	return d.Err()
}

func (m *RWMessage) Clone() pregel.Value { c := *m; return &c }

func (m *RWMessage) String() string { return fmt.Sprintf("%d", m.Count()) }

// NewRandomWalk returns the fixed (64-bit counter) RW algorithm
// running the given number of supersteps.
func NewRandomWalk(seed int64, supersteps int) *Algorithm {
	return newRW(seed, supersteps, false)
}

// NewRandomWalk16 returns the §4.2 buggy variant with 16-bit counters.
func NewRandomWalk16(seed int64, supersteps int) *Algorithm {
	return newRW(seed, supersteps, true)
}

func newRW(seed int64, supersteps int, sixteen bool) *Algorithm {
	name := "rw"
	if sixteen {
		name = "rw16"
	}
	return &Algorithm{
		Name:          name,
		Compute:       &randomWalk{seed: seed, supersteps: supersteps, sixteen: sixteen},
		MaxSupersteps: supersteps + 2,
	}
}

type randomWalk struct {
	seed       int64
	supersteps int
	sixteen    bool
}

// Compute implements pregel.Computation.
func (rw *randomWalk) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	var walkers int64
	if ctx.Superstep() == 0 {
		walkers = InitialWalkers
	} else {
		for _, m := range msgs {
			walkers += m.(*RWMessage).Count()
		}
	}
	v.SetValue(pregel.NewLong(walkers))
	if ctx.Superstep() >= rw.supersteps {
		v.VoteToHalt()
		return nil
	}
	d := v.NumEdges()
	if d == 0 || walkers <= 0 {
		// Walkers are stranded (or the counter bug has eaten them).
		return nil
	}
	// One counter per neighbor; each walker picks a uniformly random
	// neighbor. The RNG derives from (seed, vertex, superstep) so a
	// replayed context routes walkers identically.
	counters := make([]int64, d)
	rng := newVertexRandStream(rw.seed, int64(v.ID()), ctx.Superstep())
	for i := int64(0); i < walkers; i++ {
		counters[rng.intn(d)]++
	}
	for i, e := range v.Edges() {
		if counters[i] == 0 {
			continue
		}
		msg := &RWMessage{Sixteen: rw.sixteen}
		if rw.sixteen {
			msg.Short = int16(counters[i]) // BUG: wraps past 32767
		} else {
			msg.Wide = counters[i]
		}
		ctx.SendMessage(e.Target, msg)
	}
	return nil
}

// NonNegativeRWMessages is the message-value constraint the §4.2
// scenario installs (Figure 2): walker counters must never be
// negative.
func NonNegativeRWMessages(msg pregel.Value, src, dst pregel.VertexID, superstep int) bool {
	m, ok := msg.(*RWMessage)
	return !ok || m.Count() >= 0
}
