package pregel

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.PutUvarint(0)
	e.PutUvarint(300)
	e.PutUvarint(math.MaxUint64)
	e.PutVarint(0)
	e.PutVarint(-1)
	e.PutVarint(math.MinInt64)
	e.PutVarint(math.MaxInt64)
	e.PutBool(true)
	e.PutBool(false)
	e.PutFloat64(3.14159)
	e.PutFloat64(math.Inf(-1))
	e.PutBytes([]byte{1, 2, 3})
	e.PutBytes(nil)
	e.PutString("héllo wörld")
	e.PutString("")

	d := NewDecoder(e.Bytes())
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"uvarint 0", d.Uvarint(), uint64(0)},
		{"uvarint 300", d.Uvarint(), uint64(300)},
		{"uvarint max", d.Uvarint(), uint64(math.MaxUint64)},
		{"varint 0", d.Varint(), int64(0)},
		{"varint -1", d.Varint(), int64(-1)},
		{"varint min", d.Varint(), int64(math.MinInt64)},
		{"varint max", d.Varint(), int64(math.MaxInt64)},
		{"bool true", d.Bool(), true},
		{"bool false", d.Bool(), false},
		{"float pi", d.Float64(), 3.14159},
		{"float -inf", d.Float64(), math.Inf(-1)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes: got %v", got)
	}
	if got := d.Bytes(); len(got) != 0 {
		t.Errorf("empty bytes: got %v", got)
	}
	if got := d.String(); got != "héllo wörld" {
		t.Errorf("string: got %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("empty string: got %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining: got %d, want 0", d.Remaining())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.PutString("abc")
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("after Reset, Len = %d", e.Len())
	}
	e.PutVarint(7)
	d := NewDecoder(e.Bytes())
	if got := d.Varint(); got != 7 {
		t.Fatalf("after reset round trip: got %d", got)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0xFF}) // truncated varint
	_ = d.Uvarint()
	if d.Err() == nil {
		t.Fatal("expected error for truncated varint")
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", d.Err())
	}
	// Every subsequent read must return zero values without panicking.
	if d.Uvarint() != 0 || d.Varint() != 0 || d.Bool() || d.Float64() != 0 ||
		d.Bytes() != nil || d.String() != "" {
		t.Error("reads after error should return zero values")
	}
}

func TestDecoderTruncatedInputs(t *testing.T) {
	// Each case encodes a value then truncates one byte off the end.
	cases := []struct {
		name string
		enc  func(*Encoder)
		dec  func(*Decoder)
	}{
		{"float64", func(e *Encoder) { e.PutFloat64(1) }, func(d *Decoder) { _ = d.Float64() }},
		{"bytes", func(e *Encoder) { e.PutBytes([]byte("abcd")) }, func(d *Decoder) { _ = d.Bytes() }},
		{"string", func(e *Encoder) { e.PutString("abcd") }, func(d *Decoder) { _ = d.String() }},
		{"bool", func(e *Encoder) { e.PutBool(true) }, func(d *Decoder) { _ = d.Bool() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEncoder()
			c.enc(e)
			d := NewDecoder(e.Bytes()[:e.Len()-1])
			c.dec(d)
			if d.Err() == nil {
				t.Fatal("expected error for truncated input")
			}
		})
	}
}

func TestDecoderOverlongLengthPrefix(t *testing.T) {
	e := NewEncoder()
	e.PutUvarint(1 << 40) // claims a huge payload
	d := NewDecoder(e.Bytes())
	if got := d.Bytes(); got != nil || d.Err() == nil {
		t.Fatalf("expected corrupt error, got %v err %v", got, d.Err())
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, b bool, fl float64, p []byte, s string) bool {
		e := NewEncoder()
		e.PutUvarint(u)
		e.PutVarint(i)
		e.PutBool(b)
		e.PutFloat64(fl)
		e.PutBytes(p)
		e.PutString(s)
		d := NewDecoder(e.Bytes())
		gu, gi, gb, gf := d.Uvarint(), d.Varint(), d.Bool(), d.Float64()
		gp, gs := d.Bytes(), d.String()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		floatOK := gf == fl || (math.IsNaN(gf) && math.IsNaN(fl))
		return gu == u && gi == i && gb == b && floatOK &&
			bytes.Equal(gp, p) && gs == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRejectsNonCanonical: the decoder accepts only the bytes
// the encoder writes, so whatever it reads re-encodes to its input.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for _, c := range []struct {
		name string
		raw  []byte
		read func(d *Decoder)
	}{
		{"padded uvarint", []byte{0x81, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"padded varint", []byte{0x80, 0x80, 0x00}, func(d *Decoder) { d.Varint() }},
		{"bool byte 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"count past the end", []byte{3, 1, 1}, func(d *Decoder) { d.Count(1) }},
		{"int16 out of range", []byte{0x80, 0x80, 0x04}, func(d *Decoder) { d.VarintBits(16) }}, // 1<<15, zig-zagged
		{"uint8 out of range", []byte{0x80, 0x02}, func(d *Decoder) { d.UvarintBits(8) }},
	} {
		d := NewDecoder(c.raw)
		if c.read(d); !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s (%x): err = %v, want ErrCorrupt", c.name, c.raw, d.Err())
		}
	}
}
