package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graft/internal/graphgen"
	"graft/internal/graphio"
	"graft/internal/pregel"
)

// TestRunKinds writes each -kind to a file and reads it back: the
// graph on disk is the generator's, vertex values and edge count.
func TestRunKinds(t *testing.T) {
	for kind, want := range map[string]*pregel.Graph{
		"web":       graphgen.WebGraph(300, 4, 7),
		"social":    graphgen.SocialGraph(300, 4, 7),
		"bipartite": graphgen.RegularBipartite(300, 4),
	} {
		out := filepath.Join(t.TempDir(), kind+".adjlist")
		var stderr bytes.Buffer
		if status := run([]string{"-kind", kind, "-n", "300", "-deg", "4", "-seed", "7", "-o", out}, io.Discard, &stderr); status != 0 {
			t.Fatalf("-kind %s: exit status %d: %s", kind, status, &stderr)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := graphio.ReadAdjacency(f)
		f.Close()
		if err != nil {
			t.Fatalf("-kind %s: %v", kind, err)
		}
		if got.ValuesDigest() != want.ValuesDigest() || got.NumEdges() != want.NumEdges() || got.NumVertices() != want.NumVertices() {
			t.Errorf("-kind %s: read back %d vertices and %d edges (digest %s), generator has %d and %d (digest %s)",
				kind, got.NumVertices(), got.NumEdges(), got.ValuesDigest(), want.NumVertices(), want.NumEdges(), want.ValuesDigest())
		}
		if !strings.Contains(stderr.String(), kind+": ") {
			t.Errorf("-kind %s: stderr lacks the summary line: %s", kind, &stderr)
		}
	}
}

// TestRunExitStatus: an output that cannot be written fails the run
// with status 1, and a usage error is status 2.
func TestRunExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-n", "50", "-o", filepath.Join(t.TempDir(), "missing", "g.adjlist")}, 1},
		{[]string{"-n", "50", "-o", "/dev/full"}, 1},
		{[]string{"-kind", "torus"}, 1},
		{[]string{"-bogus"}, 2},
		{[]string{"-n", "50"}, 0},
	} {
		if status := run(c.args, io.Discard, io.Discard); status != c.want {
			t.Errorf("graphgen %s: exit status %d, want %d", strings.Join(c.args, " "), status, c.want)
		}
	}
}
