// Command graphgen emits the synthetic datasets as adjacency-list
// text files, for feeding graft run or external tools.
//
//	graphgen -kind web -n 10000 -deg 8 -o web.adjlist
//	graphgen -kind social -n 5000 -corrupt 0.02 -cycle -o epinions-bad.adjlist
//	graphgen -kind bipartite -n 20000 -deg 3 -o bp.adjlist
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graft/internal/graphgen"
	"graft/internal/graphio"
	"graft/internal/pregel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and streams passed in; it returns the
// exit status: 0, 1 for a failed run, 2 for usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "web", "graph kind: web, social, bipartite")
	n := fs.Int("n", 1000, "number of vertices")
	deg := fs.Int("deg", 6, "average (web/social) or exact (bipartite) degree")
	seed := fs.Int64("seed", 42, "random seed")
	corrupt := fs.Float64("corrupt", 0, "fraction of undirected weighted edges to make asymmetric (§4.3)")
	cycle := fs.Bool("cycle", false, "plant a rotated preference cycle (guarantees MWM livelock)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var g *pregel.Graph
	switch *kind {
	case "web":
		g = graphgen.WebGraph(*n, *deg, *seed)
	case "social":
		g = graphgen.SocialGraph(*n, *deg, *seed)
	case "bipartite":
		g = graphgen.RegularBipartite(*n, *deg)
	default:
		fmt.Fprintf(stderr, "graphgen: unknown kind %q\n", *kind)
		return 1
	}
	if *corrupt > 0 {
		c := graphgen.CorruptWeights(g, *corrupt, *seed+1)
		fmt.Fprintf(stderr, "corrupted %d symmetric edge pairs\n", c)
	}
	if *cycle {
		ids := graphgen.PlantPreferenceCycle(g)
		fmt.Fprintf(stderr, "planted preference cycle on vertices %v\n", ids)
	}
	if err := write(g, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "graphgen:", err)
		return 1
	}
	fmt.Fprintf(stderr, "%s: %d vertices, %d directed edges\n", *kind, g.NumVertices(), g.NumEdges())
	return 0
}

// write writes g to the file at path, or to stdout when path is empty.
// A file counts as written only once it has closed cleanly.
func write(g *pregel.Graph, path string, stdout io.Writer) error {
	if path == "" {
		return graphio.WriteAdjacency(stdout, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graphio.WriteAdjacency(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
