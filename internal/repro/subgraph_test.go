package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// subgraphCaptureRun is captureRun's subgraph-mode twin: it runs the
// algorithm's subgraph port under full capture and returns the trace.
func subgraphCaptureRun(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, dc core.DebugConfig) *trace.Reader {
	t.Helper()
	db, err := subgraphRun(t, alg, g, 4, dc)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// subgraphRun runs alg's subgraph port over g on `workers` workers with
// a session attached and returns the trace and the job's error.
func subgraphRun(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, workers int, dc core.DebugConfig) (*trace.Reader, error) {
	t.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	session, err := core.Attach(context.Background(), store, trace.JobMeta{
		JobID: "repro-sg-job", Algorithm: alg.Name, NumWorkers: workers,
		ComputeMode: "subgraph",
	}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pregel.Config{
		NumWorkers:    workers,
		Listener:      session,
		Master:        session.InstrumentMaster(alg.Master),
		Combiner:      alg.Combiner,
		MaxSupersteps: alg.MaxSupersteps,
	}
	job := pregel.NewSubgraphJob(g, session.InstrumentSubgraph(alg.Subgraph), cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	_, runErr := job.Run()
	db, err := store.OpenReader("repro-sg-job")
	if err != nil {
		t.Fatal(err)
	}
	return db, runErr
}

// wccSubgraphTrace captures a subgraph-mode WCC run with every
// active component recorded, shared by the subgraph codegen tests.
func wccSubgraphTrace(t *testing.T) *trace.Reader {
	t.Helper()
	return subgraphCaptureRun(t, algorithms.NewConnectedComponents(),
		graphgen.RegularBipartite(40, 3),
		core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
}

// firstSubgraph returns a (superstep, capture) pair from the earliest
// superstep that recorded subgraph captures.
func firstSubgraph(t *testing.T, db *trace.Reader) (int, *trace.SubgraphCapture) {
	t.Helper()
	for _, s := range db.Supersteps() {
		if sgs := db.SubgraphsAt(s); len(sgs) > 0 {
			return s, sgs[0]
		}
	}
	t.Fatal("trace has no subgraph captures")
	return 0, nil
}

func TestGenerateSubgraphTestContents(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	code, err := GenerateVertexTest(db, s, sc.ID, GenSpec{
		SubgraphExpr: "algorithms.NewConnectedComponents().Subgraph",
		ExtraImports: []string{"graft/internal/algorithms"},
		Assert:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pregel.NewDetachedSubgraph",
		"repro.MockSubgraphContext",
		"sg.ValuesDigest()",
		sc.Digest,
		"algorithms.NewConnectedComponents().Subgraph",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code lacks %q:\n%s", want, code)
		}
	}
	if got := strings.Count(code, "pregel.NewDetachedVertex("); got != len(sc.Members) {
		t.Errorf("generated %d member vertices, want %d", got, len(sc.Members))
	}
}

func TestGenerateSubgraphTestPlaceholder(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	code, err := GenerateVertexTest(db, s, sc.ID, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "t.Skip(") {
		t.Error("placeholder test should self-skip until a computation is set")
	}
}

// TestGenerateSubgraphTestByMember asks for a non-representative member
// and must get the component containing it.
func TestGenerateSubgraphTestByMember(t *testing.T) {
	db := wccSubgraphTrace(t)
	s, sc := firstSubgraph(t, db)
	if len(sc.Members) < 2 {
		t.Skip("first component has a single member")
	}
	member := sc.Members[len(sc.Members)-1]
	code, err := GenerateVertexTest(db, s, member, GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "repro.MockSubgraphContext") {
		t.Errorf("lookup by member %d produced:\n%s", member, code)
	}
}

func TestGenerateSubgraphTestErrors(t *testing.T) {
	db := wccSubgraphTrace(t)
	if _, err := GenerateVertexTest(db, 0, 99999, GenSpec{}); err == nil {
		t.Error("expected an error for an uncaptured vertex")
	}
}

// TestSubgraphExceptionCaptureKeepsValuesBefore captures a failing
// component with CaptureExceptions alone: every member record holds the
// value the member had before the failing compute, and the generated
// reproduction starts the component from those values.
func TestSubgraphExceptionCaptureKeepsValuesBefore(t *testing.T) {
	const target = 7
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			planted := pregel.SubgraphFunc(func(ctx pregel.SubgraphContext, sg *pregel.Subgraph) error {
				for _, v := range sg.Members() {
					if ctx.Superstep() == 0 {
						v.SetValue(pregel.NewLong(100 + int64(v.ID())))
					} else if sg.Has(target) {
						v.SetValue(pregel.NewLong(-1))
					}
				}
				if ctx.Superstep() == 1 && sg.Has(target) {
					panic("planted")
				}
				return nil
			})
			alg := &algorithms.Algorithm{Name: "planted", Subgraph: planted}
			db, err := subgraphRun(t, alg, graphgen.RegularBipartite(20, 2), workers, core.DebugConfig{CaptureExceptions: true})
			if err == nil {
				t.Fatal("the planted panic did not fail the job")
			}
			sc := db.SubgraphAt(1, target)
			if sc == nil {
				t.Fatal("the failing component was not captured")
			}
			for _, id := range sc.Members {
				c := db.Capture(1, id)
				want := pregel.NewLong(100 + int64(id))
				if c == nil || !pregel.ValuesEqual(c.ValueBefore, want) {
					t.Fatalf("member %d: capture %+v, want ValueBefore %v", id, c, want)
				}
			}
			assertReplays(t, db, alg)
			code, err := GenerateVertexTest(db, 1, target, GenSpec{})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range sc.Members {
				if want := fmt.Sprintf("pregel.NewDetachedVertex(%d, pregel.NewLong(%d))", id, 100+id); !strings.Contains(code, want) {
					t.Errorf("generated code lacks %q:\n%s", want, code)
				}
			}
		})
	}
}
