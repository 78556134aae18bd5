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
	alg, _, err := WithExpr(name, seed, supersteps)
	return alg, err
}

// WithExpr is ByName that also returns the call spelled as source: the
// constructor expression generated reproduction tests build the
// algorithm with. Append ".Compute", ".Master" or ".Subgraph" to it,
// and import graft/internal/algorithms.
func WithExpr(name string, seed int64, supersteps int) (*Algorithm, string, error) {
	switch name {
	case "gc":
		return NewGraphColoring(seed), fmt.Sprintf("algorithms.NewGraphColoring(%d)", seed), nil
	case "gc-buggy":
		return NewBuggyGraphColoring(seed), fmt.Sprintf("algorithms.NewBuggyGraphColoring(%d)", seed), nil
	case "rw":
		return NewRandomWalk(seed, supersteps), fmt.Sprintf("algorithms.NewRandomWalk(%d, %d)", seed, supersteps), nil
	case "rw16":
		return NewRandomWalk16(seed, supersteps), fmt.Sprintf("algorithms.NewRandomWalk16(%d, %d)", seed, supersteps), nil
	case "mwm":
		return NewMaximumWeightMatching(supersteps * 100), fmt.Sprintf("algorithms.NewMaximumWeightMatching(%d)", supersteps*100), nil
	case "cc":
		return NewConnectedComponents(), "algorithms.NewConnectedComponents()", nil
	case "bfs":
		return NewBFS(0), "algorithms.NewBFS(0)", nil
	case "pagerank":
		return NewPageRank(supersteps, 0.85), fmt.Sprintf("algorithms.NewPageRank(%d, 0.85)", supersteps), nil
	case "sssp":
		return NewSSSP(0), "algorithms.NewSSSP(0)", nil
	case "lpa":
		return NewLabelPropagation(supersteps * 10), fmt.Sprintf("algorithms.NewLabelPropagation(%d)", supersteps*10), nil
	case "triangles":
		return NewTriangleCount(), "algorithms.NewTriangleCount()", nil
	case "kcore":
		return NewKCore(3), "algorithms.NewKCore(3)", nil
	}
	return nil, "", fmt.Errorf("unknown algorithm %q (available: %s)", name, strings.Join(Names(), ", "))
}

// The seed and superstep budget `graft run` and the serve daemon
// default to, and what the GUI assumes for a trace whose manifest
// records neither.
const (
	DefaultSeed       = 42
	DefaultSupersteps = 10
)
