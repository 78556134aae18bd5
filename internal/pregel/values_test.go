package pregel

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v Value) Value {
	t.Helper()
	got, err := UnmarshalValue(MarshalValue(v))
	if err != nil {
		t.Fatalf("round trip of %v: %v", v, err)
	}
	return got
}

func TestScalarValueRoundTrips(t *testing.T) {
	values := []Value{
		Nil(),
		NewBool(true),
		NewBool(false),
		NewInt(-42),
		NewLong(1 << 60),
		NewShort(-32768),
		NewShort(32767),
		NewDouble(2.718281828),
		NewText("CONFLICT-RESOLUTION"),
		NewText(""),
		NewLongList(1, -2, 3),
		NewLongList(),
	}
	for _, v := range values {
		got := roundTripValue(t, v)
		if !ValuesEqual(v, got) {
			t.Errorf("round trip of %s %v: got %v", v.TypeName(), v, got)
		}
		if got.TypeName() != v.TypeName() {
			t.Errorf("type name changed: %s -> %s", v.TypeName(), got.TypeName())
		}
	}
}

func TestNilValueRoundTrip(t *testing.T) {
	got, err := UnmarshalValue(MarshalValue(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("nil value round trip: got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	l := NewLong(5)
	c := l.Clone().(*LongValue)
	c.Set(99)
	if l.Get() != 5 {
		t.Error("LongValue clone shares storage")
	}

	list := NewLongList(1, 2, 3)
	lc := list.Clone().(*LongListValue)
	lc.Longs[0] = 42
	if list.Longs[0] != 1 {
		t.Error("LongListValue clone shares storage")
	}

	txt := NewText("a")
	tc := txt.Clone().(*TextValue)
	tc.Set("b")
	if txt.Get() != "a" {
		t.Error("TextValue clone shares storage")
	}
}

func TestValuesEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewLong(1), NewLong(1), true},
		{NewLong(1), NewLong(2), false},
		{NewLong(1), NewInt(1), false}, // different types never equal
		{nil, nil, true},
		{NewLong(1), nil, false},
		{nil, NewLong(1), false},
		{NewText("x"), NewText("x"), true},
		{NewLongList(1, 2), NewLongList(1, 2), true},
		{NewLongList(1, 2), NewLongList(2, 1), false},
	}
	for _, c := range cases {
		if got := ValuesEqual(c.a, c.b); got != c.want {
			t.Errorf("ValuesEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRegistryUnknownType(t *testing.T) {
	if _, err := NewValueOf("no-such-type"); err == nil {
		t.Fatal("expected error for unregistered type")
	}
	e := NewEncoder()
	e.PutString("no-such-type")
	if _, err := DecodeTyped(NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected error decoding unregistered type")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	RegisterValue("long", func() Value { return new(LongValue) })
}

// raceTypes numbers the types TestRegistryConcurrentReads registers, so
// that each of its runs in one process (-count) registers new names.
var raceTypes atomic.Int64

// TestRegistryConcurrentReads registers types while other goroutines
// decode values and list the registry, which read it without a lock.
// Run under -race. Every decode succeeds, every listing is sorted, and
// each type is listed and decodable once its registration returns.
func TestRegistryConcurrentReads(t *testing.T) {
	e := NewEncoder()
	EncodeTyped(e, NewLong(7))
	raw := e.Bytes()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if g%2 == 0 {
					if v, err := UnmarshalValue(raw); err != nil || v.(*LongValue).Get() != 7 {
						t.Errorf("decode during registration: %v, %v", v, err)
						return
					}
				} else if names := RegisteredValueTypes(); !sort.StringsAreSorted(names) {
					t.Errorf("names not sorted: %v", names)
					return
				}
			}
		}(g)
	}
	for range 100 {
		name := fmt.Sprintf("test.race.%d", raceTypes.Add(1))
		RegisterValue(name, func() Value { return new(LongValue) })
		if _, err := NewValueOf(name); err != nil || !slices.Contains(RegisteredValueTypes(), name) {
			t.Fatalf("%s after its registration: %v", name, err)
		}
	}
	close(done)
	wg.Wait()
}

func TestRegisteredValueTypesSorted(t *testing.T) {
	names := RegisteredValueTypes()
	if len(names) < 7 {
		t.Fatalf("expected at least the builtin types, got %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted/unique: %v", names)
		}
	}
	found := false
	for _, n := range names {
		if n == "long" {
			found = true
		}
	}
	if !found {
		t.Error("builtin type long not registered")
	}
}

func TestShortValueWrapsLikeJavaShort(t *testing.T) {
	// The §4.2 scenario depends on Java short overflow semantics.
	s := NewShort(32767)
	s.Set(s.Get() + 1)
	if s.Get() != -32768 {
		t.Fatalf("short overflow: got %d, want -32768", s.Get())
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{nil, "∅"},
		{Nil(), "nil"},
		{NewLong(-7), "-7"},
		{NewText("abc"), "abc"},
		{NewBool(true), "true"},
		{NewLongList(1, 2), "[1 2]"},
	}
	for _, c := range cases {
		if got := ValueString(c.v); got != c.want {
			t.Errorf("ValueString(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if !strings.Contains(NewDouble(0.5).String(), "0.5") {
		t.Error("DoubleValue string")
	}
}

func TestValuePropertyRoundTrips(t *testing.T) {
	long := func(x int64) bool {
		v := NewLong(x)
		return ValuesEqual(v, roundTripValue(t, v))
	}
	short := func(x int16) bool {
		v := NewShort(x)
		return ValuesEqual(v, roundTripValue(t, v))
	}
	text := func(s string) bool {
		v := NewText(s)
		return ValuesEqual(v, roundTripValue(t, v))
	}
	list := func(xs []int64) bool {
		v := &LongListValue{Longs: xs}
		return ValuesEqual(v, roundTripValue(t, v))
	}
	for _, f := range []any{long, short, text, list} {
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}
