// The paper's §4.1 graph-coloring scenario, end to end: a buggy
// MIS-based coloring puts adjacent vertices into the same independent
// set. We run it on the bipartite dataset with Graft capturing a
// random set of vertices and their neighbors, go to the final
// superstep to check the output, find an adjacent same-colored pair,
// replay superstep by superstep to the superstep where both entered
// the MIS, and generate the reproduction test for line-by-line
// debugging.
package main

import (
	"fmt"
	"log"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/repro"
	"graft/internal/trace"
)

const seed = 42

// pair is one adjacent same-colored vertex pair.
type pair struct{ a, b graft.VertexID }

func main() {
	// The bipartite-1M-3M stand-in, scaled to demo size.
	g := graphgen.RegularBipartite(1000, 3)
	fmt.Printf("bipartite graph: %d vertices, %d directed edges\n", g.NumVertices(), g.NumEdges())

	store := graft.NewStore(graft.NewMemFS(), "traces")
	alg := algorithms.NewBuggyGraphColoring(seed)
	res, err := graft.RunAlgorithm(g, alg, graft.RunOptions{
		JobID: "gc-scenario",
		Store: store,
		Debug: &graft.DebugConfig{
			NumRandomCaptures: 10,
			CaptureNeighbors:  true,
			RandomSeed:        7,
			CaptureExceptions: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buggy GC finished after %d supersteps with %d captures\n\n",
		res.Stats.Supersteps, res.Captures)

	// Step 1 (paper): go to the final superstep in the GUI and verify
	// the output. Here: check the final colors of the whole graph.
	var conflicts []pair
	g.Each(func(v *graft.Vertex) {
		val := v.Value().(*algorithms.GCValue)
		for _, e := range v.Edges() {
			if e.Target <= v.ID() {
				continue
			}
			if g.Vertex(e.Target).Value().(*algorithms.GCValue).Color == val.Color {
				conflicts = append(conflicts, pair{v.ID(), e.Target})
			}
		}
	})
	if len(conflicts) == 0 {
		log.Fatal("the planted bug did not fire; try another seed")
	}
	bad := conflicts[0]
	fmt.Printf("BUG VISIBLE: %d adjacent pairs share a color (e.g. vertices %d and %d)\n",
		len(conflicts), bad.a, bad.b)

	// Step 2: replay the computation superstep by superstep for a
	// suspicious vertex and find where it (wrongly) entered the MIS.
	// In the GUI this is the Next/Previous superstep buttons over the
	// captured contexts; a captured vertex carries its whole history.
	db, err := graft.OpenTrace(store, "gc-scenario")
	if err != nil {
		log.Fatal(err)
	}
	suspect, history := pickCapturedConflict(db, conflicts)
	if history == nil {
		// The random capture may have missed the conflicting pairs;
		// re-run capturing one conflicting vertex explicitly, as a
		// user would after spotting the bad pair.
		fmt.Printf("\nconflict pair was not in the random capture set; re-running with CaptureIDs=[%d %d]\n", bad.a, bad.b)
		g2 := graphgen.RegularBipartite(1000, 3)
		if _, err := graft.RunAlgorithm(g2, algorithms.NewBuggyGraphColoring(seed), graft.RunOptions{
			JobID: "gc-scenario-2",
			Store: store,
			Debug: &graft.DebugConfig{
				CaptureIDs:        []graft.VertexID{bad.a, bad.b},
				CaptureNeighbors:  true,
				CaptureExceptions: true,
			},
		}); err != nil {
			log.Fatal(err)
		}
		db, err = graft.OpenTrace(store, "gc-scenario-2")
		if err != nil {
			log.Fatal(err)
		}
		suspect = bad.a
		history = db.CapturesOf(bad.a)
	}

	fmt.Printf("vertex %d is a conflicting vertex that was captured; its history:\n", suspect)
	enteredAt := -1
	for _, c := range history {
		after := c.ValueAfter.(*algorithms.GCValue)
		fmt.Printf("  superstep %3d: %-22s -> %-22s (in=%d out=%d)\n",
			c.Superstep, graft.ValueString(c.ValueBefore), graft.ValueString(c.ValueAfter),
			len(c.Incoming), len(c.Outgoing))
		if after.State == algorithms.GCInSet && enteredAt < 0 {
			enteredAt = c.Superstep
		}
	}
	if enteredAt < 0 {
		log.Fatalf("vertex %d never entered the MIS in its captured history", suspect)
	}
	fmt.Printf("\nSUSPICIOUS: vertex %d entered the MIS at superstep %d\n", suspect, enteredAt)

	// Step 3: reproduce exactly the lines of compute() that ran for
	// the suspect at that superstep — first programmatically...
	out, err := repro.Replay(db, enteredAt, suspect, alg.Compute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("programmatic replay: value -> %s (diffs vs capture: %v)\n",
		graft.ValueString(out.ValueAfter), repro.Fidelity(db.Capture(enteredAt, suspect), out))

	// ...then as the generated test for the IDE's line-by-line debugger.
	code, err := repro.GenerateVertexTest(db, enteredAt, suspect, repro.GenSpec{
		ComputationExpr: fmt.Sprintf("algorithms.NewBuggyGraphColoring(%d).Compute", seed),
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- generated reproduction test (copy into your IDE) ---")
	fmt.Println(code)
	fmt.Println("stepping through CONFLICT-RESOLUTION shows the buggy >= priority comparison")
	fmt.Println("that admits both endpoints of an equal-priority edge into the MIS.")
}

// pickCapturedConflict returns a conflicting vertex that the random
// capture actually recorded, with its history.
func pickCapturedConflict(db *trace.Reader, conflicts []pair) (graft.VertexID, []*trace.VertexCapture) {
	for _, p := range conflicts {
		for _, id := range []graft.VertexID{p.a, p.b} {
			if h := db.CapturesOf(id); len(h) > 0 {
				return id, h
			}
		}
	}
	return 0, nil
}
