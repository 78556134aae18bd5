package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// TestExceptionCaptureReplaysFromValueBefore: a vertex nothing selected
// mutates its value and then panics, under a config with no constraint.
// Its capture used to carry no ValueBefore, so replay started from
// whatever compute had written by the time it failed.
func TestExceptionCaptureReplaysFromValueBefore(t *testing.T) {
	g := graphgen.RegularBipartite(20, 3)
	g.Each(func(v *pregel.Vertex) { v.SetValue(pregel.NewLong(10)) })
	comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		val := v.Value().(*pregel.LongValue)
		val.Set(val.Get() + 7)
		ctx.SendMessageToAllEdges(v, pregel.NewLong(val.Get()))
		if v.ID() == 7 && ctx.Superstep() == 1 {
			panic("planted")
		}
		if ctx.Superstep() == 2 {
			v.VoteToHalt()
		}
		return nil
	})
	alg := &algorithms.Algorithm{Name: "mutate-then-panic", Compute: comp}
	db, session, err := runDebugged(t, alg, g, pregel.Config{}, DebugConfig{CaptureExceptions: true})
	if err == nil {
		t.Fatal("job should have failed")
	}
	if session.Captures() != 1 {
		t.Fatalf("captures = %d, want the failing vertex alone", session.Captures())
	}
	c := db.Capture(1, 7)
	if c == nil {
		t.Fatal("failing vertex not captured")
	}
	if !pregel.ValuesEqual(c.ValueBefore, pregel.NewLong(17)) || !pregel.ValuesEqual(c.ValueAfter, pregel.NewLong(24)) {
		t.Errorf("value %v -> %v, want 17 -> 24", c.ValueBefore, c.ValueAfter)
	}
	if c.Reasons != trace.ReasonException || len(c.Outgoing) != 3 {
		t.Errorf("reasons %v, %d outgoing; want exception alone and the 3 sends made before the panic", c.Reasons, len(c.Outgoing))
	}
	out, err := repro.Replay(db, 1, 7, comp)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := repro.Fidelity(c, out); len(diffs) != 0 {
		t.Errorf("replay of the captured exception diverges: %v", diffs)
	}
}

// TestNoRerunPastCaptureLimit: once MaxCaptures has engaged, a vertex
// that violates is no longer re-run for a record capture would discard.
func TestNoRerunPastCaptureLimit(t *testing.T) {
	g := graphgen.RegularBipartite(30, 3)
	var calls int64 // one worker: no concurrent computes
	inner := algorithms.NewConnectedComponents()
	alg := *inner
	alg.Compute = pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		calls++
		return inner.Compute.Compute(ctx, v, msgs)
	})
	log := &stepLog{}
	db, session, err := runDebugged(t, &alg, g, pregel.Config{NumWorkers: 1, Listener: log}, DebugConfig{
		MaxCaptures:           3,
		VertexValueConstraint: func(pregel.Value, pregel.VertexID, int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if session.Captures() != 3 || !session.LimitHit() || db.TotalCaptures() != 3 {
		t.Errorf("captures = %d (trace holds %d), limit hit = %v; want exactly 3 and the limit hit",
			session.Captures(), db.TotalCaptures(), session.LimitHit())
	}
	if r := db.JobResult(); r == nil || r.Captures != 3 || !r.CaptureLimitHit {
		t.Errorf("job.done = %+v", r)
	}
	// Three re-runs were kept; the fourth found the limit.
	if computed := log.processed; computed < 30 || calls > computed+4 {
		t.Errorf("user Compute ran %d times for %d vertex computes, want at most %d", calls, computed, computed+4)
	}
}

// fickle is a Compute that is not re-runnable: it reads package-level
// state — how often it has been called for this vertex and superstep —
// and the second time keeps an odd value where it first halved it, and
// stays awake. The first call for each (vertex, superstep) is the same
// in any run, so the job itself is deterministic.
type fickle struct {
	mu   sync.Mutex
	seen map[[2]int64]int
}

func (f *fickle) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	f.mu.Lock()
	f.seen[[2]int64{int64(v.ID()), int64(ctx.Superstep())}]++
	again := f.seen[[2]int64{int64(v.ID()), int64(ctx.Superstep())}] > 1
	f.mu.Unlock()

	val := int64(v.ID()) + 100
	if ctx.Superstep() > 0 {
		val = v.Value().(*pregel.LongValue).Get()
	}
	for _, m := range msgs {
		val += m.(*pregel.LongValue).Get()
	}
	if val%2 == 1 && !again {
		val /= 2
	}
	v.SetValue(pregel.NewLong(val))
	if ctx.Superstep() < 3 {
		ctx.SendMessageToAllEdges(v, pregel.NewLong(val%7))
	} else if !again {
		v.VoteToHalt()
	}
	return nil
}

func newFickle() *algorithms.Algorithm {
	return &algorithms.Algorithm{Name: "fickle", Compute: &fickle{seen: map[[2]int64]int{}}, MaxSupersteps: 6}
}

// fickleConfig captures the vertices whose value ends a multiple of 3.
func fickleConfig() DebugConfig {
	return DebugConfig{VertexValueConstraint: func(v pregel.Value, _ pregel.VertexID, _ int) bool {
		return v.(*pregel.LongValue).Get()%3 != 0
	}}
}

// TestNondeterministicComputeIsFlagged is the honest-failure path: a
// capture whose re-run did not end as the job's own compute did says so,
// and the job never notices either run.
func TestNondeterministicComputeIsFlagged(t *testing.T) {
	for _, workers := range []int{1, 3} {
		plain, _ := equivRun(t, newFickle(), graphgen.RegularBipartite(60, 3), workers, nil, nil)
		dc := fickleConfig()
		got, tapes := equivRun(t, newFickle(), graphgen.RegularBipartite(60, 3), workers, &dc, nil)
		if d := got.diff(plain); d != "" {
			t.Errorf("%d workers: re-runs of a nondeterministic compute leaked into the job: %s", workers, d)
		}
		flagged, clean := 0, 0
		for _, tape := range tapes {
			for _, line := range tape.lines {
				if strings.Contains(line, "nondeterministic") {
					flagged++
				} else {
					clean++
				}
			}
		}
		// Odd sums diverge on the re-run (value), and every superstep-3
		// compute does (halt vote); even sums before that re-run alike.
		if flagged == 0 || clean == 0 {
			t.Errorf("%d workers: %d captures flagged nondeterministic, %d not; want some of each", workers, flagged, clean)
		}
	}

	db, _, err := runDebugged(t, newFickle(), graphgen.RegularBipartite(60, 3), pregel.Config{}, fickleConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range db.Supersteps() {
		for _, c := range db.CapturesAt(s) {
			if s == 3 && !c.Reasons.Has(trace.ReasonNondeterministic) {
				t.Errorf("superstep 3 vertex %d: reasons %v, want the halt-vote mismatch flagged", c.ID, c.Reasons)
			}
			if !c.Reasons.Has(trace.ReasonVertexConstraint) || len(c.Violations) != 1 {
				t.Errorf("superstep %d vertex %d: reasons %v, %d violations", s, c.ID, c.Reasons, len(c.Violations))
			}
			// Live fields are the first run's whatever the re-run did.
			if c.ValueAfter.(*pregel.LongValue).Get()%3 != 0 || c.HaltedAfter != (s == 3) {
				t.Errorf("superstep %d vertex %d: value after %v halted %v are not the job's", s, c.ID, c.ValueAfter, c.HaltedAfter)
			}
		}
	}
}

// TestRerunLeavesLiveRunAlone: a compute that changes its value and an
// edge value in place — neither change the same when made twice — and
// sends what it computed from both, captured after the fact. The re-run
// works on copies of the vertex as it was before: each is changed
// exactly once, and the record holds the message the job sent. A compute
// that also changes a received message in place is re-run from what the
// first run left of it, and the capture says so.
func TestRerunLeavesLiveRunAlone(t *testing.T) {
	for _, touchMsg := range []bool{false, true} {
		g := pregel.NewGraph()
		g.AddVertex(1, pregel.NewLong(10))
		g.AddVertex(2, nil)
		g.AddEdge(1, 2, pregel.NewLong(20))
		v := g.Vertex(1)
		msgs := []pregel.Value{pregel.NewLong(30)}
		bump := func(x pregel.Value) int64 { l := x.(*pregel.LongValue); l.Set(l.Get() + 1); return l.Get() }
		calls := 0
		user := pregel.ComputeFunc(func(c pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			calls++
			sum := bump(v.Value()) + bump(v.Edges()[0].Value)
			if touchMsg {
				bump(msgs[0])
			}
			c.SendMessage(2, pregel.NewLong(sum))
			return nil
		})
		session, err := Attach(context.Background(), trace.NewStore(dfs.NewMemFS(), "t"), trace.JobMeta{JobID: "j", NumWorkers: 1}, g,
			DebugConfig{VertexValueConstraint: func(pregel.Value, pregel.VertexID, int) bool { return false }})
		if err != nil {
			t.Fatal(err)
		}
		sink := &frameSink{t: t}
		session.workerSinks[0] = sink
		if err := session.Instrument(user).Compute(&quietContext{}, v, msgs); err != nil {
			t.Fatal(err)
		}
		session.JobFinished(nil, nil)
		if calls != 2 {
			t.Fatalf("compute ran %d times, want the job's run and one re-run", calls)
		}
		want := &trace.VertexCapture{
			ID: 1, Reasons: trace.ReasonVertexConstraint,
			ValueBefore: pregel.NewLong(10), ValueAfter: pregel.NewLong(11),
			Edges:      []pregel.Edge{{Target: 2, Value: pregel.NewLong(21)}},
			Incoming:   []pregel.Value{pregel.NewLong(30)},
			Outgoing:   []trace.OutMsg{{To: 2, Value: pregel.NewLong(32)}},
			Violations: []trace.Violation{{Kind: trace.VertexValueViolation, SrcID: 1, DstID: 1, Value: pregel.NewLong(11)}},
		}
		if touchMsg {
			want.Reasons |= trace.ReasonNondeterministic
			want.Incoming[0] = pregel.NewLong(31)
		}
		for name, x := range map[string]pregel.Value{"value": v.Value(), "edge value": v.Edges()[0].Value, "message": msgs[0]} {
			want := map[string]pregel.Value{"value": want.ValueAfter, "edge value": want.Edges[0].Value, "message": want.Incoming[0]}[name]
			if !pregel.ValuesEqual(x, want) {
				t.Errorf("touchMsg=%v: %s = %v after the capture, want %v: the re-run reached the live run's state", touchMsg, name, x, want)
			}
		}
		if wantBytes := recordBytes(t, func(w *trace.Writer) error { return w.WriteVertexCapture(want) }); !bytes.Equal(sink.got, wantBytes) {
			t.Errorf("touchMsg=%v: record differs\n got %x\nwant %x", touchMsg, sink.got, wantBytes)
		}
	}
}
