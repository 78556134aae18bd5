package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// runDebugged runs alg over g with Graft attached and returns the
// loaded trace DB plus the session and job error.
func runDebugged(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph,
	cfg pregel.Config, dc DebugConfig) (*trace.Reader, *Graft, error) {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	if cfg.NumWorkers <= 0 {
		cfg.NumWorkers = 4
	}
	session, err := Attach(context.Background(), store, trace.JobMeta{
		JobID:      "test-job",
		Algorithm:  alg.Name,
		NumWorkers: cfg.NumWorkers,
	}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	// Wire the instrumented pieces the way the graft facade does.
	engCfg := cfg
	engCfg.Listener = session.Chain(cfg.Listener)
	engCfg.Master = session.InstrumentMaster(alg.Master)
	if engCfg.Combiner == nil {
		engCfg.Combiner = alg.Combiner
	}
	if engCfg.MaxSupersteps == 0 {
		engCfg.MaxSupersteps = alg.MaxSupersteps
	}
	job := pregel.NewJob(g, session.Instrument(alg.Compute), engCfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	_, runErr := job.Run()

	db, err := store.OpenReader("test-job")
	if err != nil {
		t.Fatal(err)
	}
	return db, session, runErr
}

func TestCaptureByID(t *testing.T) {
	g := graphgen.RegularBipartite(40, 3)
	db, session, err := runDebugged(t, algorithms.NewConnectedComponents(), g,
		pregel.Config{}, DebugConfig{CaptureIDs: []pregel.VertexID{2}, CaptureExceptions: true})
	if err != nil {
		t.Fatal(err)
	}
	if session.Captures() == 0 {
		t.Fatal("no captures written")
	}
	ids := db.CapturedVertexIDs()
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("captured vertices = %v, want [2]", ids)
	}
	c := db.Capture(0, 2)
	if c == nil {
		t.Fatal("vertex 2 not captured at superstep 0")
	}
	if !c.Reasons.Has(trace.ReasonByID) {
		t.Errorf("reasons = %v, want by-id", c.Reasons)
	}
	// CC at superstep 0: value becomes own ID, sends to all 3 edges.
	if !pregel.ValuesEqual(c.ValueAfter, pregel.NewLong(2)) {
		t.Errorf("value after = %v", c.ValueAfter)
	}
	if len(c.Outgoing) != 3 {
		t.Errorf("outgoing = %d, want 3", len(c.Outgoing))
	}
	if len(c.Edges) != 3 || !c.EdgesPreCompute {
		t.Errorf("edges = %d preCompute=%v", len(c.Edges), c.EdgesPreCompute)
	}
	if !c.HaltedAfter {
		t.Error("CC vertex should have voted to halt")
	}
	// The job result must be recorded.
	if db.JobResult() == nil || db.JobResult().Error != "" || db.JobResult().Captures != session.Captures() {
		t.Errorf("job result = %+v", db.JobResult())
	}
}

func TestCaptureNeighbors(t *testing.T) {
	// Path 0-1-2-3: capturing 1 with neighbors adds 0 and 2.
	g := pregel.NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(pregel.VertexID(i), nil)
	}
	for i := 0; i < 3; i++ {
		if err := g.AddUndirectedEdge(pregel.VertexID(i), pregel.VertexID(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	db, _, err := runDebugged(t, algorithms.NewConnectedComponents(), g, pregel.Config{},
		DebugConfig{CaptureIDs: []pregel.VertexID{1}, CaptureNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := db.CapturedVertexIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("captured vertices = %v, want [0 1 2]", ids)
	}
	if c := db.Capture(0, 0); !c.Reasons.Has(trace.ReasonNeighbor) {
		t.Errorf("vertex 0 reasons = %v", c.Reasons)
	}
}

func TestRandomCaptureDeterministicAndSized(t *testing.T) {
	g := graphgen.RegularBipartite(100, 3)
	cfg := DebugConfig{NumRandomCaptures: 5, RandomSeed: 7}
	targets1 := selectTargets(g, &cfg)
	targets2 := selectTargets(graphgen.RegularBipartite(100, 3), &cfg)
	if len(targets1) != 5 {
		t.Fatalf("selected %d targets, want 5", len(targets1))
	}
	for id, r := range targets1 {
		if !r.Has(trace.ReasonRandom) {
			t.Errorf("vertex %d reason %v", id, r)
		}
		if targets2[id] != r {
			t.Errorf("selection not deterministic for seed")
		}
	}
	other := selectTargets(g, &DebugConfig{NumRandomCaptures: 5, RandomSeed: 8})
	same := 0
	for id := range targets1 {
		if _, ok := other[id]; ok {
			same++
		}
	}
	if same == 5 {
		t.Error("different seeds picked identical targets")
	}
}

func TestRandomCaptureMoreThanGraph(t *testing.T) {
	g := graphgen.RegularBipartite(8, 2)
	targets := selectTargets(g, &DebugConfig{NumRandomCaptures: 100, RandomSeed: 1})
	if int64(len(targets)) != g.NumVertices() {
		t.Fatalf("selected %d targets from %d vertices", len(targets), g.NumVertices())
	}
}

func TestMessageConstraintCapturesViolators(t *testing.T) {
	// The §4.2 scenario: 16-bit random walk overflows; the constraint
	// flags negative messages and Graft captures the senders.
	g := graphgen.WebGraph(2000, 5, 11)
	db, session, err := runDebugged(t, algorithms.NewRandomWalk16(9, 8), g, pregel.Config{},
		DebugConfig{MessageConstraint: algorithms.NonNegativeRWMessages, CaptureExceptions: true})
	if err != nil {
		t.Fatal(err)
	}
	if session.Captures() == 0 {
		t.Fatal("overflow produced no captures; bug did not fire")
	}
	rows := db.AllViolations()
	if len(rows) == 0 {
		t.Fatal("no violation rows")
	}
	sawRed := false
	for _, s := range db.Supersteps() {
		st := db.StatusAt(s)
		if st.MessageViolation {
			sawRed = true
		}
		if st.VertexViolation || st.Exception {
			t.Errorf("unexpected V/E status at superstep %d: %+v", s, st)
		}
	}
	if !sawRed {
		t.Error("no superstep shows a red M box")
	}
	// Each violating capture records the offending negative value.
	for _, row := range rows {
		if row.Kind != "message" {
			t.Errorf("violation kind %q", row.Kind)
		}
		if !strings.HasPrefix(row.Detail, "-") {
			t.Errorf("violation detail %q does not look negative", row.Detail)
		}
		c := db.Capture(row.Superstep, row.VertexID)
		if c == nil || !c.Reasons.Has(trace.ReasonMessageConstraint) {
			t.Errorf("violator %d at superstep %d not captured properly", row.VertexID, row.Superstep)
		}
	}
}

func TestVertexValueConstraint(t *testing.T) {
	// Constraint: walker counts must be non-negative. The 16-bit bug
	// eventually makes some vertex value negative.
	g := graphgen.WebGraph(2000, 5, 11)
	db, _, err := runDebugged(t, algorithms.NewRandomWalk16(9, 8), g, pregel.Config{},
		DebugConfig{VertexValueConstraint: func(v pregel.Value, id pregel.VertexID, superstep int) bool {
			lv, ok := v.(*pregel.LongValue)
			return !ok || lv.Get() >= 0
		}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range db.Supersteps() {
		if db.StatusAt(s).VertexViolation {
			found = true
			for _, c := range db.CapturesAt(s) {
				if c.Reasons.Has(trace.ReasonVertexConstraint) &&
					c.ValueAfter.(*pregel.LongValue).Get() >= 0 {
					t.Errorf("captured non-violating value %v", c.ValueAfter)
				}
			}
		}
	}
	if !found {
		t.Error("vertex value violations never captured")
	}
}

func TestExceptionCapture(t *testing.T) {
	g := graphgen.RegularBipartite(20, 3)
	boom := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if v.ID() == 7 && ctx.Superstep() == 1 {
			panic("array index out of bounds (planted)")
		}
		if ctx.Superstep() >= 2 {
			v.VoteToHalt()
		}
		return nil
	})
	alg := &algorithms.Algorithm{Name: "boom", Compute: boom}
	db, session, err := runDebugged(t, alg, g, pregel.Config{}, DebugConfig{CaptureExceptions: true})
	if err == nil {
		t.Fatal("job should have failed")
	}
	var ce *pregel.ComputeError
	if !errors.As(err, &ce) || ce.VertexID != 7 || ce.Superstep != 1 {
		t.Fatalf("error = %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not preserved: %v", err)
	}
	if session.Captures() != 1 {
		t.Errorf("captures = %d, want 1", session.Captures())
	}
	c := db.Capture(1, 7)
	if c == nil {
		t.Fatal("failing vertex not captured")
	}
	if c.Exception == nil || !strings.Contains(c.Exception.Message, "planted") {
		t.Errorf("exception = %+v", c.Exception)
	}
	if c.Exception.Stack == "" {
		t.Error("no stack recorded")
	}
	if !db.StatusAt(1).Exception {
		t.Error("E box not red at superstep 1")
	}
	if db.JobResult() == nil || db.JobResult().Error == "" {
		t.Error("job.done should record the failure")
	}
}

func TestComputeErrorReturnCaptured(t *testing.T) {
	g := graphgen.RegularBipartite(10, 2)
	failing := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if v.ID() == 3 {
			return errors.New("bad state")
		}
		v.VoteToHalt()
		return nil
	})
	alg := &algorithms.Algorithm{Name: "err", Compute: failing}
	db, _, err := runDebugged(t, alg, g, pregel.Config{}, DebugConfig{CaptureExceptions: true})
	if err == nil {
		t.Fatal("job should have failed")
	}
	c := db.Capture(0, 3)
	if c == nil || c.Exception == nil || c.Exception.Message != "bad state" {
		t.Fatalf("capture = %+v", c)
	}
}

func TestCaptureAllActiveWithSuperstepFilter(t *testing.T) {
	g := graphgen.RegularBipartite(30, 3)
	db, session, err := runDebugged(t, algorithms.NewRandomWalk(1, 6), g, pregel.Config{},
		DebugConfig{
			CaptureAllActive: true,
			SuperstepFilter:  func(s int) bool { return s >= 4 },
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Supersteps() {
		if s < 4 {
			t.Errorf("superstep %d observed despite filter", s)
		}
	}
	// Supersteps 4, 5, 6 observed; every vertex active in 4 and 5.
	if got := len(db.CapturesAt(4)); got != 30 {
		t.Errorf("captures at superstep 4 = %d, want 30", got)
	}
	if session.Captures() < 60 {
		t.Errorf("total captures = %d, want >= 60", session.Captures())
	}
	for _, c := range db.CapturesAt(4) {
		if !c.Reasons.Has(trace.ReasonAllActive) {
			t.Errorf("capture reasons = %v", c.Reasons)
		}
	}
}

func TestMaxCapturesSafetyNet(t *testing.T) {
	g := graphgen.RegularBipartite(50, 3)
	db, session, err := runDebugged(t, algorithms.NewRandomWalk(1, 10), g, pregel.Config{},
		DebugConfig{CaptureAllActive: true, MaxCaptures: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !session.LimitHit() {
		t.Error("limit not hit")
	}
	if session.Captures() != 25 {
		t.Errorf("captures = %d, want exactly 25", session.Captures())
	}
	if db.JobResult() == nil || !db.JobResult().CaptureLimitHit {
		t.Error("job.done should record the limit hit")
	}
	if db.TotalCaptures() != 25 {
		t.Errorf("trace has %d captures, want 25", db.TotalCaptures())
	}
}

func TestMasterCaptureAndSuperstepMeta(t *testing.T) {
	g := graphgen.RegularBipartite(60, 3)
	db, _, err := runDebugged(t, algorithms.NewGraphColoring(42), g, pregel.Config{},
		DebugConfig{CaptureIDs: []pregel.VertexID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if db.MaxSuperstep() < 3 {
		t.Fatalf("GC trace too short: %d supersteps", db.MaxSuperstep())
	}
	// Master captured every superstep with the phase transitions.
	m0 := db.MasterAt(0)
	if m0 == nil {
		t.Fatal("no master capture at superstep 0")
	}
	if len(m0.Sets) != 2 { // phase + color
		t.Errorf("superstep 0 master sets = %v", m0.Sets)
	}
	if got := m0.AggregatedAfter["phase"].(*pregel.TextValue).Get(); got != algorithms.GCPhaseSelection {
		t.Errorf("phase after master 0 = %q", got)
	}
	m1 := db.MasterAt(1)
	if got := m1.AggregatedBefore["phase"].(*pregel.TextValue).Get(); got != algorithms.GCPhaseSelection {
		t.Errorf("phase before master 1 = %q", got)
	}
	if got := m1.AggregatedAfter["phase"].(*pregel.TextValue).Get(); got != algorithms.GCPhaseConflictResolution {
		t.Errorf("phase after master 1 = %q", got)
	}
	// Superstep meta carries the post-master broadcast that vertices saw.
	meta1 := db.MetaAt(1)
	if meta1 == nil {
		t.Fatal("no superstep meta at 1")
	}
	if got := meta1.Aggregated["phase"].(*pregel.TextValue).Get(); got != algorithms.GCPhaseConflictResolution {
		t.Errorf("meta 1 phase = %q", got)
	}
	if meta1.NumVertices != 60 {
		t.Errorf("meta 1 vertices = %d", meta1.NumVertices)
	}
}

func TestFig2ConfigShape(t *testing.T) {
	dc := Fig2Config(3)
	if dc.NumRandomCaptures != 5 || !dc.CaptureNeighbors || dc.MessageConstraint == nil {
		t.Errorf("Fig2Config = %+v", dc)
	}
	if !dc.MessageConstraint(pregel.NewLong(5), 0, 1, 0) {
		t.Error("non-negative long rejected")
	}
	if dc.MessageConstraint(pregel.NewLong(-5), 0, 1, 0) {
		t.Error("negative long accepted")
	}
	if dc.MessageConstraint(pregel.NewShort(-1), 0, 1, 0) {
		t.Error("negative short accepted")
	}
	if !dc.MessageConstraint(pregel.NewText("x"), 0, 1, 0) {
		t.Error("non-numeric message should pass")
	}
}

// TestPresetConfig: every name `graft run -debug` and a serve
// submission accept resolves, and an unknown one lists them all.
func TestPresetConfig(t *testing.T) {
	for _, name := range []string{"", "none"} {
		if dc, err := PresetConfig(name, 1); dc != nil || err != nil {
			t.Errorf("PresetConfig(%q) = %+v, %v; want nil, nil", name, dc, err)
		}
	}
	for _, name := range []string{"DC-sp", "DC-sp+nbr", "DC-msg", "DC-vv", "DC-full", "fig2", "all-active"} {
		dc, err := PresetConfig(name, 7)
		if err != nil || dc == nil || !dc.CaptureExceptions {
			t.Errorf("PresetConfig(%q) = %+v, %v", name, dc, err)
		}
	}
	full, _ := PresetConfig("DC-full", 7)
	if len(full.CaptureIDs) != 10 || full.CaptureIDs[0] != 1 || full.CaptureIDs[9] != 10 || !full.CaptureNeighbors ||
		full.MessageConstraint == nil || full.VertexValueConstraint == nil || full.RandomSeed != 7 {
		t.Errorf("DC-full = %+v", full)
	}
	if full.VertexValueConstraint(pregel.NewDouble(-1), 1, 0) || !full.VertexValueConstraint(pregel.NewText("x"), 1, 0) {
		t.Error("DC-full's vertex constraint: negative doubles fail, non-numeric values pass")
	}
	if fig2, _ := PresetConfig("fig2", 7); fig2.NumRandomCaptures != 5 || fig2.RandomSeed != 7 {
		t.Errorf("fig2 = %+v", fig2)
	}
	if all, _ := PresetConfig("all-active", 7); !all.CaptureAllActive {
		t.Errorf("all-active = %+v", all)
	}
	_, err := PresetConfig("DC-bogus", 1)
	if err == nil || !strings.Contains(err.Error(), "(DC-sp, DC-sp+nbr, DC-msg, DC-vv, DC-full, fig2, all-active, none)") {
		t.Errorf("unknown preset: err = %v", err)
	}
}

func TestValidateRejectsNegativeRandom(t *testing.T) {
	dc := DebugConfig{NumRandomCaptures: -1}
	if err := dc.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestSuperstepFilterSkipsInstrumentation(t *testing.T) {
	g := graphgen.RegularBipartite(20, 3)
	db, session, err := runDebugged(t, algorithms.NewConnectedComponents(), g, pregel.Config{},
		DebugConfig{CaptureIDs: []pregel.VertexID{0}, SuperstepFilter: func(s int) bool { return s == 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if session.Captures() != 1 {
		t.Errorf("captures = %d, want 1", session.Captures())
	}
	if db.Capture(0, 0) != nil {
		t.Error("superstep 0 captured despite filter")
	}
	if db.Capture(1, 0) == nil {
		t.Error("superstep 1 not captured")
	}
}
