package graphgen

import (
	"fmt"

	"graft/internal/pregel"
)

// Dataset is a named, lazily built stand-in for one of the paper's
// graphs.
type Dataset struct {
	// Name matches the paper's dataset name.
	Name string
	// PaperVertices / PaperEdges are the original sizes (directed edge
	// counts), for the Table 1 / Table 2 reports.
	PaperVertices int64
	PaperEdges    int64
	// Description matches the paper's table row.
	Description string
	// Build generates the scaled synthetic stand-in.
	Build func() *pregel.Graph
}

// Stats builds the dataset and returns its actual synthetic size.
func (d *Dataset) Stats() (vertices, edges int64) {
	g := d.Build()
	return g.NumVertices(), g.NumEdges()
}

func scaled(n int64, scale float64) int {
	s := int(float64(n) * scale)
	if s < 16 {
		s = 16
	}
	return s
}

// Table1Datasets returns the demonstration datasets of Table 1 of the
// paper at the given scale (1.0 = original vertex counts).
func Table1Datasets(scale float64, seed int64) []Dataset {
	return []Dataset{
		{
			Name:          "web-BS",
			PaperVertices: 685_000,
			PaperEdges:    7_600_000,
			Description:   "A web graph from 2002",
			Build: func() *pregel.Graph {
				return WebGraph(scaled(685_000, scale), 11, seed)
			},
		},
		{
			Name:          "soc-Epinions",
			PaperVertices: 76_000,
			PaperEdges:    500_000,
			Description:   `Epinions.com "who trusts whom" network`,
			Build: func() *pregel.Graph {
				return SocialGraph(scaled(76_000, scale), 7, seed+1)
			},
		},
		{
			Name:          "bipartite-1M-3M",
			PaperVertices: 1_000_000,
			PaperEdges:    6_000_000,
			Description:   "A 3-regular bipartite graph",
			Build: func() *pregel.Graph {
				return RegularBipartite(scaled(1_000_000, scale), 3)
			},
		},
	}
}

// Table2Datasets returns the performance datasets of Table 2 of the
// paper at the given scale.
func Table2Datasets(scale float64, seed int64) []Dataset {
	return []Dataset{
		{
			Name:          "sk-2005",
			PaperVertices: 51_000_000,
			PaperEdges:    1_900_000_000,
			Description:   "Web graph of the .sk domain from 2005",
			Build: func() *pregel.Graph {
				return WebGraph(scaled(51_000_000, scale), 12, seed+2)
			},
		},
		{
			Name:          "twitter",
			PaperVertices: 42_000_000,
			PaperEdges:    1_500_000_000,
			Description:   `Twitter "who is followed by who" network`,
			Build: func() *pregel.Graph {
				return WebGraph(scaled(42_000_000, scale), 12, seed+3)
			},
		},
		{
			Name:          "bipartite-2B-6B",
			PaperVertices: 2_000_000_000,
			PaperEdges:    12_000_000_000,
			Description:   "A 3-regular bipartite graph",
			Build: func() *pregel.Graph {
				return RegularBipartite(scaled(2_000_000_000, scale), 3)
			},
		},
	}
}

// FindDataset returns the named dataset from ds.
func FindDataset(ds []Dataset, name string) (*Dataset, error) {
	for i := range ds {
		if ds[i].Name == name {
			return &ds[i], nil
		}
	}
	return nil, fmt.Errorf("graphgen: unknown dataset %q", name)
}

// BuildDataset generates the named Table 1/2 stand-in at the given
// scale and seed: the lookup behind `graft run -dataset` and the serve
// daemon's "dataset" field.
func BuildDataset(name string, scale float64, seed int64) (*pregel.Graph, error) {
	ds, err := FindDataset(append(Table1Datasets(scale, seed), Table2Datasets(scale, seed)...), name)
	if err != nil {
		return nil, err
	}
	return ds.Build(), nil
}
