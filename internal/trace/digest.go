package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"graft/internal/pregel"
)

// Digest returns a canonical SHA-256 of a trace's captured
// computation: for every superstep in order and every captured vertex
// in ID order, it hashes the value transition, topology, halt flag,
// violations, exception presence, and the incoming/outgoing message
// multisets (canonicalized by sorted encoding). Everything
// placement-dependent — the worker that ran a vertex, inbox arrival
// order, trace-file layout — is excluded or canonicalized, so two runs
// of the same deterministic job digest identically even when their
// vertices were partitioned differently (e.g. with the engine's skew
// rebalancer on versus off).
func Digest(v View) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeBytes := func(b []byte) {
		writeInt(int64(len(b)))
		h.Write(b)
	}
	writeVal := func(val pregel.Value) {
		writeBytes(pregel.MarshalValue(val))
	}
	writeSortedSet := func(items [][]byte) {
		sort.Slice(items, func(i, j int) bool { return bytes.Compare(items[i], items[j]) < 0 })
		writeInt(int64(len(items)))
		for _, it := range items {
			writeBytes(it)
		}
	}

	for _, s := range v.Supersteps() {
		writeInt(int64(s))
		if m := v.MetaAt(s); m != nil {
			writeInt(m.NumVertices)
			writeInt(m.NumEdges)
			names := make([]string, 0, len(m.Aggregated))
			for name := range m.Aggregated {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				writeBytes([]byte(name))
				writeVal(m.Aggregated[name])
			}
		}
		for _, c := range v.CapturesAt(s) {
			writeInt(int64(c.ID))
			writeInt(int64(c.Reasons))
			writeVal(c.ValueBefore)
			writeVal(c.ValueAfter)
			if c.HaltedAfter {
				writeInt(1)
			} else {
				writeInt(0)
			}
			writeInt(int64(len(c.Edges)))
			for _, e := range c.Edges {
				writeInt(int64(e.Target))
				writeVal(e.Value)
			}
			// Incoming order follows the senders' worker numbers, so it
			// depends on placement; the multiset is the deterministic
			// quantity.
			in := make([][]byte, len(c.Incoming))
			for i, msg := range c.Incoming {
				in[i] = pregel.MarshalValue(msg)
			}
			writeSortedSet(in)
			out := make([][]byte, len(c.Outgoing))
			for i, om := range c.Outgoing {
				e := pregel.NewEncoder()
				e.PutVarint(int64(om.To))
				pregel.EncodeTyped(e, om.Value)
				out[i] = append([]byte(nil), e.Bytes()...)
			}
			writeSortedSet(out)
			writeInt(int64(len(c.Violations)))
			for _, vio := range c.Violations {
				writeInt(int64(vio.Kind))
				writeInt(int64(vio.SrcID))
				writeInt(int64(vio.DstID))
				writeVal(vio.Value)
			}
			// Exception stacks embed goroutine addresses; only presence
			// and message are stable.
			if c.Exception != nil {
				writeInt(1)
				writeBytes([]byte(c.Exception.Message))
			} else {
				writeInt(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
