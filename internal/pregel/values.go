package pregel

import (
	"strconv"
)

// Concrete Value types covering the scalar kinds Giraph ships as
// Writables (LongWritable, IntWritable, DoubleWritable, Text, ...).
// Algorithm-specific composite values live next to their algorithms
// and register themselves the same way.

func init() {
	RegisterValue("nil", func() Value { return new(NilValue) })
	RegisterValue("bool", func() Value { return new(BoolValue) })
	RegisterValue("int", func() Value { return new(IntValue) })
	RegisterValue("long", func() Value { return new(LongValue) })
	RegisterValue("short", func() Value { return new(ShortValue) })
	RegisterValue("double", func() Value { return new(DoubleValue) })
	RegisterValue("text", func() Value { return new(TextValue) })
	RegisterValue("longlist", func() Value { return new(LongListValue) })
}

// NilValue is the unit value, used where Giraph uses NullWritable
// (e.g. unweighted edges).
type NilValue struct{}

// Nil returns the canonical NilValue.
func Nil() *NilValue { return &NilValue{} }

// ImmutableMarker identifies NilValue as safe to share across inboxes
// (see ImmutableValue).
func (*NilValue) ImmutableMarker() {}

func (*NilValue) TypeName() string      { return "nil" }
func (*NilValue) Encode(*Encoder)       {}
func (*NilValue) Decode(*Decoder) error { return nil }
func (*NilValue) Clone() Value          { return &NilValue{} }
func (*NilValue) String() string        { return "nil" }

// BoolValue wraps a bool.
type BoolValue bool

// NewBool returns a BoolValue holding v.
func NewBool(v bool) *BoolValue { b := BoolValue(v); return &b }

func (b *BoolValue) Get() bool         { return bool(*b) }
func (b *BoolValue) Set(v bool)        { *b = BoolValue(v) }
func (*BoolValue) TypeName() string    { return "bool" }
func (b *BoolValue) Encode(e *Encoder) { e.PutBool(bool(*b)) }
func (b *BoolValue) Decode(d *Decoder) error {
	*b = BoolValue(d.Bool())
	return d.Err()
}
func (b *BoolValue) Clone() Value   { c := *b; return &c }
func (b *BoolValue) String() string { return strconv.FormatBool(bool(*b)) }

// IntValue wraps an int32, mirroring IntWritable.
type IntValue int32

// NewInt returns an IntValue holding v.
func NewInt(v int32) *IntValue { i := IntValue(v); return &i }

func (i *IntValue) Get() int32        { return int32(*i) }
func (i *IntValue) Set(v int32)       { *i = IntValue(v) }
func (*IntValue) TypeName() string    { return "int" }
func (i *IntValue) Encode(e *Encoder) { e.PutVarint(int64(*i)) }
func (i *IntValue) Decode(d *Decoder) error {
	*i = IntValue(d.VarintBits(32))
	return d.Err()
}
func (i *IntValue) Clone() Value   { c := *i; return &c }
func (i *IntValue) String() string { return strconv.FormatInt(int64(*i), 10) }

// LongValue wraps an int64, mirroring LongWritable.
type LongValue int64

// NewLong returns a LongValue holding v.
func NewLong(v int64) *LongValue { l := LongValue(v); return &l }

func (l *LongValue) Get() int64        { return int64(*l) }
func (l *LongValue) Set(v int64)       { *l = LongValue(v) }
func (*LongValue) TypeName() string    { return "long" }
func (l *LongValue) Encode(e *Encoder) { e.PutVarint(int64(*l)) }
func (l *LongValue) Decode(d *Decoder) error {
	*l = LongValue(d.Varint())
	return d.Err()
}
func (l *LongValue) Clone() Value   { c := *l; return &c }
func (l *LongValue) String() string { return strconv.FormatInt(int64(*l), 10) }

// ShortValue wraps an int16. The random-walk scenario (§4.2 of the
// paper) depends on 16-bit counters overflowing exactly as Java's
// short does; arithmetic on the underlying int16 wraps the same way.
type ShortValue int16

// NewShort returns a ShortValue holding v.
func NewShort(v int16) *ShortValue { s := ShortValue(v); return &s }

func (s *ShortValue) Get() int16        { return int16(*s) }
func (s *ShortValue) Set(v int16)       { *s = ShortValue(v) }
func (*ShortValue) TypeName() string    { return "short" }
func (s *ShortValue) Encode(e *Encoder) { e.PutVarint(int64(*s)) }
func (s *ShortValue) Decode(d *Decoder) error {
	*s = ShortValue(d.VarintBits(16))
	return d.Err()
}
func (s *ShortValue) Clone() Value   { c := *s; return &c }
func (s *ShortValue) String() string { return strconv.FormatInt(int64(*s), 10) }

// DoubleValue wraps a float64, mirroring DoubleWritable.
type DoubleValue float64

// NewDouble returns a DoubleValue holding v.
func NewDouble(v float64) *DoubleValue { f := DoubleValue(v); return &f }

func (f *DoubleValue) Get() float64      { return float64(*f) }
func (f *DoubleValue) Set(v float64)     { *f = DoubleValue(v) }
func (*DoubleValue) TypeName() string    { return "double" }
func (f *DoubleValue) Encode(e *Encoder) { e.PutFloat64(float64(*f)) }
func (f *DoubleValue) Decode(d *Decoder) error {
	*f = DoubleValue(d.Float64())
	return d.Err()
}
func (f *DoubleValue) Clone() Value { c := *f; return &c }
func (f *DoubleValue) String() string {
	return strconv.FormatFloat(float64(*f), 'g', -1, 64)
}

// TextValue wraps a string, mirroring Text.
type TextValue string

// NewText returns a TextValue holding s.
func NewText(s string) *TextValue { t := TextValue(s); return &t }

func (t *TextValue) Get() string       { return string(*t) }
func (t *TextValue) Set(s string)      { *t = TextValue(s) }
func (*TextValue) TypeName() string    { return "text" }
func (t *TextValue) Encode(e *Encoder) { e.PutString(string(*t)) }
func (t *TextValue) Decode(d *Decoder) error {
	*t = TextValue(d.String())
	return d.Err()
}
func (t *TextValue) Clone() Value   { c := *t; return &c }
func (t *TextValue) String() string { return string(*t) }

// LongListValue wraps a slice of int64, for algorithms whose messages
// carry several IDs at once.
type LongListValue struct {
	Longs []int64
}

// NewLongList returns a LongListValue holding a copy of vs.
func NewLongList(vs ...int64) *LongListValue {
	return &LongListValue{Longs: append([]int64(nil), vs...)}
}

func (*LongListValue) TypeName() string { return "longlist" }

func (l *LongListValue) Encode(e *Encoder) {
	e.PutUvarint(uint64(len(l.Longs)))
	for _, v := range l.Longs {
		e.PutVarint(v)
	}
}

func (l *LongListValue) Decode(d *Decoder) error {
	l.Longs = make([]int64, d.Count(1))
	for i := range l.Longs {
		l.Longs[i] = d.Varint()
	}
	return d.Err()
}

func (l *LongListValue) Clone() Value {
	return &LongListValue{Longs: append([]int64(nil), l.Longs...)}
}

func (l *LongListValue) String() string {
	s := "["
	for i, v := range l.Longs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatInt(v, 10)
	}
	return s + "]"
}
