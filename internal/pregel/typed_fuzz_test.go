package pregel_test

import (
	"bytes"
	"math"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/pregel"
)

// typedSeeds is one encoding per registered value type (its zero value,
// so a type registered later is seeded too), a few values at the edges
// of their fields, and encodings the decoder must refuse: counts and
// lengths that lie, a non-minimal varint, a bool byte of 2, an int
// outside int32.
func typedSeeds() [][]byte {
	var seeds [][]byte
	for _, name := range pregel.RegisteredValueTypes() {
		v, err := pregel.NewValueOf(name)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, pregel.MarshalValue(v))
	}
	for _, v := range []pregel.Value{
		nil,
		pregel.NewBool(true),
		pregel.NewInt(math.MinInt32),
		pregel.NewShort(math.MaxInt16),
		pregel.NewLong(math.MinInt64),
		pregel.NewDouble(math.NaN()),
		pregel.NewText("héllo"),
		pregel.NewLongList(1, -2, math.MaxInt64),
		&algorithms.GCValue{Color: -1, State: algorithms.GCColored, Priority: math.MaxUint64},
		&algorithms.RWMessage{Sixteen: true, Short: math.MinInt16},
		&algorithms.MWMValue{MatchedTo: -3, Matched: true},
	} {
		seeds = append(seeds, pregel.MarshalValue(v))
	}
	typed := func(name string, payload ...byte) []byte {
		e := pregel.NewEncoder()
		e.PutString(name)
		e.PutRaw(payload)
		return e.Bytes()
	}
	return append(seeds,
		typed("longlist", 0x80, 0x80, 0x80, 0x80, 0x80, 0x40), // 1<<40 elements
		typed("text", 0xff, 0xff, 0xff, 0x7f),                 // a 256 MiB string
		typed("long", 0x80, 0x00),                             // 0, padded
		typed("bool", 2),
		typed("int", 0x80, 0x80, 0x80, 0x80, 0x10), // 1<<31, zig-zagged
		[]byte{0x80, 0x00},                         // an empty type name, padded
	)
}

// FuzzDecodeTyped: decoding hostile bytes as a self-describing value,
// over every registered type, never panics, never sizes an allocation
// by a count the input cannot back, and accepts only canonical bytes:
// a value it returns re-encodes to exactly the bytes it consumed.
func FuzzDecodeTyped(f *testing.F) {
	for _, s := range typedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := pregel.NewDecoder(raw)
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return
		}
		if l, ok := v.(*pregel.LongListValue); ok && cap(l.Longs) > len(raw) {
			t.Fatalf("room for %d longs from %d bytes", cap(l.Longs), len(raw))
		}
		consumed := raw[:len(raw)-d.Remaining()]
		if again := pregel.MarshalValue(v); !bytes.Equal(again, consumed) {
			t.Fatalf("%s decoded from %x re-encodes to %x", pregel.ValueString(v), consumed, again)
		}
	})
}
