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
// default to, and what the GUI assumes for a trace whose manifest
// records neither.
const (
	DefaultSeed       = 42
	DefaultSupersteps = 10
)

// ReproExpr returns ByName(name, seed, supersteps) spelled as source —
// the constructor expression generated reproduction tests build the
// algorithm with ("" when they have none and leave a placeholder);
// append ".Compute" or ".Master" to it, and import
// graft/internal/algorithms.
func ReproExpr(name string, seed int64, supersteps int) string {
	switch name {
	case "gc":
		return fmt.Sprintf("algorithms.NewGraphColoring(%d)", seed)
	case "gc-buggy":
		return fmt.Sprintf("algorithms.NewBuggyGraphColoring(%d)", seed)
	case "rw":
		return fmt.Sprintf("algorithms.NewRandomWalk(%d, %d)", seed, supersteps)
	case "rw16":
		return fmt.Sprintf("algorithms.NewRandomWalk16(%d, %d)", seed, supersteps)
	case "mwm":
		return fmt.Sprintf("algorithms.NewMaximumWeightMatching(%d)", supersteps*100)
	case "cc":
		return "algorithms.NewConnectedComponents()"
	case "pagerank":
		return fmt.Sprintf("algorithms.NewPageRank(%d, 0.85)", supersteps)
	case "sssp":
		return "algorithms.NewSSSP(0)"
	}
	return ""
}
