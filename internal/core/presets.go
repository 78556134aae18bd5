package core

import (
	"fmt"
	"strings"

	"graft/internal/pregel"
)

// Preset is one named DebugConfig: a row of the paper's Table 3.
type Preset struct {
	Name        string
	Description string
	Make        func(seed int64) DebugConfig
}

// Table3Presets returns Table 3 of the paper: the five DebugConfig
// configurations used in the overhead experiments, cheapest first.
func Table3Presets() []Preset {
	ids := func(n int) []pregel.VertexID {
		out := make([]pregel.VertexID, n)
		for i := range out {
			out[i] = pregel.VertexID(i + 1)
		}
		return out
	}
	return []Preset{
		{
			Name:        "DC-sp",
			Description: "Captures 5 specified vertices",
			Make: func(int64) DebugConfig {
				return DebugConfig{CaptureIDs: ids(5), CaptureExceptions: true}
			},
		},
		{
			Name:        "DC-sp+nbr",
			Description: "Captures 5 specified vertices and their neighbors",
			Make: func(int64) DebugConfig {
				return DebugConfig{CaptureIDs: ids(5), CaptureNeighbors: true, CaptureExceptions: true}
			},
		},
		{
			Name:        "DC-msg",
			Description: "Specifies constraint that message values are non-negative",
			Make: func(int64) DebugConfig {
				return DebugConfig{MessageConstraint: NonNegativeMessages, CaptureExceptions: true}
			},
		},
		{
			Name:        "DC-vv",
			Description: "Specifies constraint that vertex values are non-negative",
			Make: func(int64) DebugConfig {
				return DebugConfig{VertexValueConstraint: nonNegativeVertexValues, CaptureExceptions: true}
			},
		},
		{
			Name: "DC-full",
			Description: "Captures 10 specified vertices and their neighbors, specifies " +
				"message and vertex constraints, and checks for exceptions",
			Make: func(seed int64) DebugConfig {
				return DebugConfig{
					CaptureIDs:            ids(10),
					CaptureNeighbors:      true,
					MessageConstraint:     NonNegativeMessages,
					VertexValueConstraint: nonNegativeVertexValues,
					CaptureExceptions:     true,
					RandomSeed:            seed,
				}
			},
		},
	}
}

// nonNegativeVertexValues is the Table 3 vertex-value constraint.
func nonNegativeVertexValues(val pregel.Value, id pregel.VertexID, superstep int) bool {
	switch v := val.(type) {
	case *pregel.LongValue:
		return v.Get() >= 0
	case *pregel.DoubleValue:
		return v.Get() >= 0
	}
	return true
}

// PresetConfig resolves a debug preset name — what `graft run -debug`
// and a `graft serve` submission's "debug" field accept: a Table 3
// name, "fig2", "all-active", or "none" (also ""), which means run
// undebugged and returns nil.
func PresetConfig(name string, seed int64) (*DebugConfig, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "fig2":
		dc := Fig2Config(seed)
		return &dc, nil
	case "all-active":
		return &DebugConfig{CaptureAllActive: true, CaptureExceptions: true}, nil
	}
	presets := Table3Presets()
	names := make([]string, len(presets))
	for i, p := range presets {
		if p.Name == name {
			dc := p.Make(seed)
			return &dc, nil
		}
		names[i] = p.Name
	}
	return nil, fmt.Errorf("unknown debug preset %q (%s, fig2, all-active, none)", name, strings.Join(names, ", "))
}
