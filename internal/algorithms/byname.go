package algorithms

import (
	"fmt"
	"strings"
)

// Names lists the algorithm names ByName accepts, in display order.
func Names() []string {
	return []string{"gc", "gc-buggy", "rw", "rw16", "mwm", "cc", "bfs", "pagerank", "sssp", "lpa", "triangles", "kcore"}
}

// SubgraphNames lists the algorithms with a subgraph-mode port
// (`graft run -mode subgraph`), in display order.
func SubgraphNames() []string {
	var names []string
	for _, name := range Names() {
		if a, err := ByName(name, 0, 1); err == nil && a.SupportsSubgraph() {
			names = append(names, name)
		}
	}
	return names
}

// ByName builds a packaged algorithm from its short name — the shared
// resolver behind `graft run -alg` and the serve daemon's submit
// endpoint. seed feeds the randomized algorithms; supersteps scales
// the iteration bounds the same way the CLI always has (PageRank runs
// exactly that many rounds, matching/LPA get a generous multiple as a
// safety bound).
func ByName(name string, seed int64, supersteps int) (*Algorithm, error) {
	switch name {
	case "gc":
		return NewGraphColoring(seed), nil
	case "gc-buggy":
		return NewBuggyGraphColoring(seed), nil
	case "rw":
		return NewRandomWalk(seed, supersteps), nil
	case "rw16":
		return NewRandomWalk16(seed, supersteps), nil
	case "mwm":
		return NewMaximumWeightMatching(supersteps * 100), nil
	case "cc":
		return NewConnectedComponents(), nil
	case "bfs":
		return NewBFS(0), nil
	case "pagerank":
		return NewPageRank(supersteps, 0.85), nil
	case "sssp":
		return NewSSSP(0), nil
	case "lpa":
		return NewLabelPropagation(supersteps * 10), nil
	case "triangles":
		return NewTriangleCount(), nil
	case "kcore":
		return NewKCore(3), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (available: %s)", name, strings.Join(Names(), ", "))
}

// The seed and superstep budget `graft run` and the serve daemon
// default to. A trace's manifest does not record either, so the GUI
// reproduces and replay-checks a job as if it ran with these.
const (
	DefaultSeed       = 42
	DefaultSupersteps = 10
)

// reproExprs gives, per algorithm, the Go expression that generated
// reproduction tests construct it with: ByName(name, DefaultSeed,
// DefaultSupersteps) spelled as source.
var reproExprs = map[string]string{
	"gc":       "algorithms.NewGraphColoring(42)",
	"gc-buggy": "algorithms.NewBuggyGraphColoring(42)",
	"rw":       "algorithms.NewRandomWalk(42, 10)",
	"rw16":     "algorithms.NewRandomWalk16(42, 10)",
	"mwm":      "algorithms.NewMaximumWeightMatching(1000)",
	"cc":       "algorithms.NewConnectedComponents()",
	"pagerank": "algorithms.NewPageRank(10, 0.85)",
	"sssp":     "algorithms.NewSSSP(0)",
}

// ReproExpr returns the constructor expression for the named algorithm
// at the defaults ("" when generated tests have none and leave a
// placeholder); append ".Compute" or ".Master" to it, and import
// graft/internal/algorithms.
func ReproExpr(name string) string { return reproExprs[name] }
