package repro

import (
	"context"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// captureRun executes alg over g with Graft attached and returns the
// loaded trace DB (the job error, if any, is returned too: the
// exception scenarios rely on it).
func captureRun(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, dc core.DebugConfig) (*trace.Reader, error) {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	session, err := core.Attach(context.Background(), store, trace.JobMeta{
		JobID: "repro-job", Algorithm: alg.Name, NumWorkers: 4,
	}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pregel.Config{
		NumWorkers:    4,
		Listener:      session,
		Master:        session.InstrumentMaster(alg.Master),
		Combiner:      alg.Combiner,
		MaxSupersteps: alg.MaxSupersteps,
	}
	job := pregel.NewJob(g, session.Instrument(alg.Compute), cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	_, runErr := job.Run()
	db, err := store.OpenReader("repro-job")
	if err != nil {
		t.Fatal(err)
	}
	return db, runErr
}

// assertReplays requires every capture in the DB, of every kind, to
// replay exactly.
func assertReplays(t *testing.T, db *trace.Reader, alg *algorithms.Algorithm) {
	t.Helper()
	if db.TotalCaptures() == 0 {
		t.Fatal("nothing to replay")
	}
	diverged, err := CheckTrace(db, alg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range diverged {
		t.Errorf("%s %d at superstep %d: replay diverged: %v", c.Kind, c.ID, c.Superstep, c.Diffs)
	}
}

func TestReplayFidelityGraphColoring(t *testing.T) {
	alg := algorithms.NewBuggyGraphColoring(42)
	g := graphgen.RegularBipartite(60, 3)
	db, err := captureRun(t, alg, g, core.DebugConfig{
		NumRandomCaptures: 5, RandomSeed: 3, CaptureNeighbors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplays(t, db, alg)
}

func TestReplayFidelityRandomWalk16(t *testing.T) {
	alg := algorithms.NewRandomWalk16(9, 8)
	g := graphgen.WebGraph(2000, 5, 11)
	db, err := captureRun(t, alg, g, core.DebugConfig{
		MessageConstraint: algorithms.NonNegativeRWMessages,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplays(t, db, alg)
}

func TestReplayFidelityMatching(t *testing.T) {
	alg := algorithms.NewMaximumWeightMatching(100)
	g := graphgen.SocialGraph(80, 5, 3)
	db, err := captureRun(t, alg, g, core.DebugConfig{
		NumRandomCaptures: 10, RandomSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertReplays(t, db, alg)
}

func TestReplayExceptionReproduces(t *testing.T) {
	boom := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if v.ID() == 7 && ctx.Superstep() == 1 {
			var empty []int
			_ = empty[3] // real index-out-of-range panic
		}
		if ctx.Superstep() >= 2 {
			v.VoteToHalt()
		}
		return nil
	})
	alg := &algorithms.Algorithm{Name: "boom", Compute: boom}
	g := graphgen.RegularBipartite(20, 3)
	db, runErr := captureRun(t, alg, g, core.DebugConfig{CaptureExceptions: true})
	if runErr == nil {
		t.Fatal("job should have failed")
	}
	out, err := Replay(db, 1, 7, boom)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err == nil {
		t.Fatal("replay did not reproduce the panic")
	}
	if !strings.Contains(out.Err.Error(), "index out of range") {
		t.Errorf("replayed error = %v", out.Err)
	}
	if out.PanicStack == "" {
		t.Error("no replay stack")
	}
	if diffs := Fidelity(db.Capture(1, 7), out); len(diffs) != 0 {
		t.Errorf("exception fidelity: %v", diffs)
	}
}

func TestReplayMissingCapture(t *testing.T) {
	alg := algorithms.NewConnectedComponents()
	g := graphgen.RegularBipartite(10, 2)
	db, err := captureRun(t, alg, g, core.DebugConfig{CaptureIDs: []pregel.VertexID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(db, 0, 999, alg.Compute); err == nil {
		t.Error("expected error for uncaptured vertex")
	}
}

func TestReplayMaster(t *testing.T) {
	alg := algorithms.NewGraphColoring(42)
	g := graphgen.RegularBipartite(40, 3)
	db, err := captureRun(t, alg, g, core.DebugConfig{CaptureIDs: []pregel.VertexID{0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Supersteps() {
		diffs, err := ReplayMaster(db, s, alg.Master)
		if err != nil {
			t.Fatalf("master replay at %d: %v", s, err)
		}
		if len(diffs) != 0 {
			t.Errorf("superstep %d: master replay diverged: %v", s, diffs)
		}
	}
	// A master that never halts nor sets anything diverges wherever the
	// captured one did either.
	diverged := 0
	for _, s := range db.Supersteps() {
		if diffs, _ := ReplayMaster(db, s, idleMaster{}); len(diffs) != 0 {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("an idle master replayed every capture")
	}
}

type idleMaster struct{}

func (idleMaster) Compute(pregel.MasterContext) error { return nil }

func TestFidelityDetectsDivergence(t *testing.T) {
	// Replaying with a different seed must be flagged.
	alg := algorithms.NewGraphColoring(42)
	other := algorithms.NewGraphColoring(43)
	g := graphgen.RegularBipartite(60, 3)
	db, err := captureRun(t, alg, g, core.DebugConfig{NumRandomCaptures: 10, RandomSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, s := range db.Supersteps() {
		for _, c := range db.CapturesAt(s) {
			out, err := Replay(db, s, c.ID, other.Compute)
			if err != nil {
				t.Fatal(err)
			}
			if len(Fidelity(c, out)) > 0 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("fidelity check never flagged a wrong-seed replay")
	}
}

func TestMockContextPanicsOnUnknownAggregator(t *testing.T) {
	ctx := NewMockContext(&trace.SuperstepMeta{Superstep: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.GetAggregated("missing")
}

func TestMustDecodeValueRoundTrip(t *testing.T) {
	v := pregel.NewText("hello")
	enc := pregel.MarshalValue(v)
	hexStr := ""
	for _, b := range enc {
		hexStr += string("0123456789abcdef"[b>>4]) + string("0123456789abcdef"[b&0xF])
	}
	got := MustDecodeValue(hexStr)
	if !pregel.ValuesEqual(v, got) {
		t.Fatalf("round trip: %v", got)
	}
}

func TestMustDecodeValueBadInput(t *testing.T) {
	for _, bad := range []string{"zz", "0", "ffff"} {
		func() {
			defer func() { recover() }()
			MustDecodeValue(bad)
			t.Errorf("MustDecodeValue(%q) did not panic", bad)
		}()
	}
}

// TestResolveEveryPackagedAlgorithm: every name algorithms.ByName takes
// resolves from a manifest to its algorithm and to the constructor
// expression generated tests build it with, for each computation it
// has; a name that is not packaged resolves to nothing.
func TestResolveEveryPackagedAlgorithm(t *testing.T) {
	for _, name := range algorithms.Names() {
		alg, spec := Resolve(trace.JobMeta{Algorithm: name, Seed: 7, Supersteps: 5})
		if alg == nil || alg.Name != name {
			t.Errorf("%s: resolved to %+v", name, alg)
			continue
		}
		ctor, ok := strings.CutSuffix(spec.ComputationExpr, ".Compute")
		if !ok || !strings.HasPrefix(ctor, "algorithms.New") || spec.ExtraImports[0] != "graft/internal/algorithms" {
			t.Errorf("%s: computation expression %q, imports %v", name, spec.ComputationExpr, spec.ExtraImports)
		}
		if want := ctor + ".Master"; (alg.Master != nil) != (spec.MasterExpr == want) {
			t.Errorf("%s: master expression %q with master %v", name, spec.MasterExpr, alg.Master != nil)
		}
		if want := ctor + ".Subgraph"; (alg.Subgraph != nil) != (spec.SubgraphExpr == want) {
			t.Errorf("%s: subgraph expression %q with subgraph port %v", name, spec.SubgraphExpr, alg.Subgraph != nil)
		}
	}
	if alg, spec := Resolve(trace.JobMeta{Algorithm: "custom", Supersteps: 5}); alg != nil || spec.ComputationExpr != "" {
		t.Errorf("custom algorithm resolved to %+v, %+v", alg, spec)
	}
}
