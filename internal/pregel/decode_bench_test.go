package pregel

import "testing"

// BenchmarkDecodeTyped decodes one LongValue and one DoubleValue per
// iteration: the allocations are the Decoder and the two values
// themselves, the type name is looked up in place.
func BenchmarkDecodeTyped(b *testing.B) {
	e := NewEncoder()
	EncodeTyped(e, NewLong(42))
	EncodeTyped(e, NewDouble(0.15))
	raw := append([]byte(nil), e.Bytes()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(raw)
		for j := 0; j < 2; j++ {
			if v, err := DecodeTyped(d); err != nil || v == nil {
				b.Fatal(v, err)
			}
		}
	}
}
