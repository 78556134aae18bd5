package pregel

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// Value is the interface implemented by every vertex value, edge value,
// message and aggregator value. It mirrors Giraph's Writable contract:
// values must round-trip through the binary codec, be cloneable (for
// capture snapshots and checkpoints), and print a human-readable form
// for the GUI and generated reproduction code.
//
// Implementations use pointer receivers; a Value held by the engine is
// always a pointer to its concrete type.
type Value interface {
	// TypeName returns the registry key identifying the concrete type.
	TypeName() string
	// Encode appends the binary form of the value to e.
	Encode(e *Encoder)
	// Decode reads the binary form from d, replacing the receiver's
	// contents.
	Decode(d *Decoder) error
	// Clone returns a deep copy.
	Clone() Value
	fmt.Stringer
}

// ImmutableValue marks Value implementations whose contents never
// change after construction. The engine uses it to skip defensive
// copies: SendMessageToAllEdges shares one immutable object across all
// recipients instead of cloning per edge (when no combiner is
// installed — combiners may mutate their operands, so combined
// messages always get private copies). Declaring a mutable type
// immutable corrupts inbox isolation; only add the marker to types
// with no setters.
type ImmutableValue interface {
	Value
	// ImmutableMarker is a no-op identifying the type as immutable.
	ImmutableMarker()
}

// valueRegistry maps type names to factories so traces and checkpoints
// can reconstruct concrete types. The map is never written once
// published: RegisterValue swaps in a copy under valueRegistryMu, and
// readers load the pointer, so decoding a value takes no lock.
var (
	valueRegistryMu sync.Mutex
	valueRegistry   atomic.Pointer[map[string]func() Value]
)

// registered returns the published registry; nil, and so empty, before
// the first registration.
func registered() map[string]func() Value {
	if m := valueRegistry.Load(); m != nil {
		return *m
	}
	return nil
}

// RegisterValue registers a factory for the named value type. It is
// typically called from init. Registering the same name twice panics:
// a name collision would corrupt every trace that uses it.
func RegisterValue(name string, factory func() Value) {
	valueRegistryMu.Lock()
	defer valueRegistryMu.Unlock()
	old := registered()
	if _, dup := old[name]; dup {
		panic("pregel: duplicate value type registration: " + name)
	}
	m := make(map[string]func() Value, len(old)+1)
	maps.Copy(m, old)
	m[name] = factory
	valueRegistry.Store(&m)
}

// NewValueOf constructs a zero value of the named registered type.
func NewValueOf(name string) (Value, error) {
	f, ok := registered()[name]
	if !ok {
		return nil, errUnregistered(name)
	}
	return f(), nil
}

func errUnregistered(name string) error {
	return fmt.Errorf("pregel: unregistered value type %q", name)
}

// RegisteredValueTypes returns the sorted names of all registered value
// types; used by diagnostics and the GUI.
func RegisteredValueTypes() []string {
	return slices.Sorted(maps.Keys(registered()))
}

// EncodeTyped appends a self-describing encoding of v: type name then
// payload. A nil Value encodes as an empty type name.
func EncodeTyped(e *Encoder, v Value) {
	if v == nil {
		e.PutString("")
		return
	}
	e.PutString(v.TypeName())
	v.Encode(e)
}

// DecodeTyped reads a value written by EncodeTyped, returning nil for a
// nil-encoded value.
func DecodeTyped(d *Decoder) (Value, error) {
	name := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(name) == 0 {
		return nil, nil
	}
	// Looked up by the name's bytes in place: no string is made, and no
	// lock taken, per value.
	f, ok := registered()[string(name)]
	if !ok {
		return nil, errUnregistered(string(name))
	}
	v := f()
	if err := v.Decode(d); err != nil {
		return nil, err
	}
	return v, d.Err()
}

// MarshalValue returns the self-describing encoding of v.
func MarshalValue(v Value) []byte {
	e := NewEncoder()
	EncodeTyped(e, v)
	return append([]byte(nil), e.Bytes()...)
}

// UnmarshalValue decodes a buffer produced by MarshalValue.
func UnmarshalValue(b []byte) (Value, error) {
	d := NewDecoder(b)
	v, err := DecodeTyped(d)
	if err != nil {
		return nil, err
	}
	return v, d.Err()
}

// ValuesEqual reports whether two values have identical type and
// binary representation. Both nil is equal; one nil is not.
func ValuesEqual(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.TypeName() != b.TypeName() {
		return false
	}
	ea, eb := NewEncoder(), NewEncoder()
	a.Encode(ea)
	b.Encode(eb)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// CloneValue clones v, passing nil through.
func CloneValue(v Value) Value {
	if v == nil {
		return nil
	}
	return v.Clone()
}

// ValueString renders v for display, using "∅" for nil.
func ValueString(v Value) string {
	if v == nil {
		return "∅"
	}
	return v.String()
}
