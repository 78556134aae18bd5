package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// stubContext is the engine side of one Compute call, for tests that
// drive the instrumented computation directly. Like a message plane
// with an in-place combiner, it overwrites what it is sent.
type stubContext struct {
	pregel.Context // nil: anything not overridden below is not called
	superstep      int
	worker         int
}

func (c *stubContext) Superstep() int { return c.superstep }
func (c *stubContext) WorkerID() int  { return c.worker }
func (c *stubContext) SendMessage(_ pregel.VertexID, msg pregel.Value) {
	switch m := msg.(type) {
	case *pregel.LongValue:
		m.Set(-999)
	case *pregel.DoubleValue:
		m.Set(-999)
	case *algorithms.GCMessage:
		m.Priority++
	}
}

type closableBuffer struct{ bytes.Buffer }

func (*closableBuffer) Close() error { return nil }

// recordBytes returns the reference Writer's stream for the one record
// write emits: the magic and the record's frame.
func recordBytes(t *testing.T, write func(*trace.Writer) error) []byte {
	t.Helper()
	var buf closableBuffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frameSink stands in for a worker's lane and keeps the bytes of the
// frame it is handed, encoded before it returns as the contract says.
type frameSink struct {
	trace.RecordSink // nil: only vertex frames arrive
	t                *testing.T
	got              []byte
	exception        *trace.ExceptionInfo
}

func (s *frameSink) WriteVertexFrame(f *trace.VertexFrame) error {
	s.got = recordBytes(s.t, func(w *trace.Writer) error { return w.WriteVertexFrame(f) })
	s.exception = f.Exception
	return nil
}

func randomValue(rng *rand.Rand, allowNil bool) pregel.Value {
	switch n := rng.Intn(7); {
	case n == 0 && allowNil:
		return nil
	case n <= 1:
		return pregel.NewLong(rng.Int63n(1<<40) - 1<<39)
	case n == 2:
		return pregel.NewDouble(rng.NormFloat64())
	case n == 3:
		return pregel.NewText(fmt.Sprintf("%x", rng.Int63())[:rng.Intn(12)])
	case n == 4:
		return pregel.NewLongList(rng.Int63(), -rng.Int63(), 7)
	case n == 5:
		return &algorithms.GCValue{Color: int32(rng.Intn(9)) - 1, State: algorithms.GCState(rng.Intn(4)), Priority: rng.Uint64()}
	}
	return &algorithms.GCMessage{Type: uint8(rng.Intn(2)), From: pregel.VertexID(rng.Intn(100)), Priority: rng.Uint64()}
}

// TestFrameMatchesObjectEncoder drives the instrumented computation
// over random vertices, debug configurations and compute behaviours —
// values replaced and mutated in place, edges added, removed and
// revalued, messages overwritten by the plane after they are sent,
// violations of all three kinds, errors and panics — and checks that
// the frame it hands the sink is, byte for byte, the record the object
// encoder writes for the VertexCapture built the old way: by cloning
// each piece at the moment it was current.
func TestFrameMatchesObjectEncoder(t *testing.T) {
	captured, skipped := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const id = pregel.VertexID(17)
		g := pregel.NewGraph()
		g.AddVertex(id, randomValue(rng, true))
		for i := 0; i < 6; i++ {
			g.AddVertex(pregel.VertexID(100+i), nil)
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			g.AddEdge(id, pregel.VertexID(100+rng.Intn(6)), randomValue(rng, true))
		}
		v := g.Vertex(id)

		allActive, byID := rng.Intn(3) == 0, rng.Intn(3) == 0
		badValue, catchExc := rng.Intn(3) == 0, rng.Intn(2) == 0
		badOut, badIn := map[pregel.Value]bool{}, map[pregel.Value]bool{}
		dc := DebugConfig{CaptureAllActive: allActive, CaptureExceptions: catchExc}
		if byID {
			dc.CaptureIDs = []pregel.VertexID{id}
		}
		if rng.Intn(2) == 0 {
			dc.VertexValueConstraint = func(pregel.Value, pregel.VertexID, int) bool { return !badValue }
		}
		if rng.Intn(2) == 0 {
			dc.MessageConstraint = func(m pregel.Value, _, _ pregel.VertexID, _ int) bool { return !badOut[m] }
		}
		if rng.Intn(2) == 0 {
			dc.IncomingMessageConstraint = func(m, _ pregel.Value, _ pregel.VertexID, _ int) bool { return !badIn[m] }
		}

		msgs := make([]pregel.Value, rng.Intn(4))
		for i := range msgs {
			msgs[i] = randomValue(rng, false)
			badIn[msgs[i]] = rng.Intn(3) == 0
		}
		ctx := &stubContext{superstep: rng.Intn(40), worker: rng.Intn(3)}
		static := allActive || byID
		want := &trace.VertexCapture{
			Superstep: ctx.superstep, Worker: ctx.worker, ID: id,
			EdgesPreCompute: static,
			Incoming:        make([]pregel.Value, len(msgs)),
		}
		if static || dc.hasDynamicConstraints() {
			want.ValueBefore = pregel.CloneValue(v.Value())
		}
		if static {
			want.Edges = cloneEdges(v.Edges())
		}
		if byID {
			want.Reasons |= trace.ReasonByID
		}
		if allActive {
			want.Reasons |= trace.ReasonAllActive
		}
		for i, m := range msgs {
			want.Incoming[i] = pregel.CloneValue(m)
			if dc.IncomingMessageConstraint != nil && badIn[m] {
				want.Reasons |= trace.ReasonIncomingConstraint
				want.Violations = append(want.Violations, trace.Violation{
					Kind: trace.IncomingMessageViolation, SrcID: -1, DstID: id, Value: pregel.CloneValue(m)})
			}
		}

		failure := rng.Intn(6) // 0: return an error, 1: panic
		user := pregel.ComputeFunc(func(c pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
			send := func(to pregel.VertexID, m pregel.Value) {
				want.Outgoing = append(want.Outgoing, trace.OutMsg{To: to, Value: pregel.CloneValue(m)})
				if dc.MessageConstraint != nil && badOut[m] {
					want.Reasons |= trace.ReasonMessageConstraint
					want.Violations = append(want.Violations, trace.Violation{
						Kind: trace.MessageViolation, SrcID: id, DstID: to, Value: pregel.CloneValue(m)})
				}
			}
			for i, n := 0, rng.Intn(4); i < n; i++ {
				m, to := randomValue(rng, false), pregel.VertexID(100+rng.Intn(6))
				badOut[m] = rng.Intn(3) == 0
				send(to, m)
				c.SendMessage(to, m)
			}
			switch old := v.Value().(type) { // in place where the type allows
			case *pregel.LongValue:
				old.Set(old.Get() + 1)
			case *algorithms.GCValue:
				old.Color++
			default:
				v.SetValue(randomValue(rng, true))
			}
			if rng.Intn(2) == 0 {
				v.AddEdge(pregel.Edge{Target: pregel.VertexID(100 + rng.Intn(6)), Value: randomValue(rng, true)})
			}
			if edges := v.Edges(); len(edges) > 0 && rng.Intn(2) == 0 {
				if l, ok := edges[0].Value.(*pregel.LongValue); ok {
					l.Set(l.Get() - 5)
				} else {
					v.RemoveEdges(edges[0].Target)
				}
			}
			if rng.Intn(2) == 0 {
				m := randomValue(rng, false)
				badOut[m] = rng.Intn(3) == 0
				for i, e := range v.Edges() {
					// recordingContext sends clones on all but the last edge; a
					// clone is never in badOut.
					if i == len(v.Edges())-1 {
						send(e.Target, m)
					} else {
						want.Outgoing = append(want.Outgoing, trace.OutMsg{To: e.Target, Value: pregel.CloneValue(m)})
					}
				}
				c.SendMessageToAllEdges(v, m)
			}
			if rng.Intn(2) == 0 {
				v.VoteToHalt()
			}
			switch failure {
			case 0:
				return errors.New("compute failed")
			case 1:
				panic("compute panicked")
			}
			return nil
		})

		session, err := Attach(trace.NewStore(dfs.NewMemFS(), "t"), Options{JobID: "j", NumWorkers: 3}, g, dc)
		if err != nil {
			t.Fatal(err)
		}
		sink := &frameSink{t: t}
		for i := range session.workerSinks {
			session.workerSinks[i] = sink
		}
		err = session.Instrument(user).Compute(ctx, v, msgs)
		if (err != nil) != (failure <= 1) {
			t.Fatalf("seed %d: compute returned %v with failure mode %d", seed, err, failure)
		}
		session.JobFinished(nil, nil) // stops the drainers

		want.ValueAfter = pregel.CloneValue(v.Value())
		want.HaltedAfter = v.Halted()
		if !static {
			want.Edges = cloneEdges(v.Edges())
		}
		if err == nil && dc.VertexValueConstraint != nil && badValue {
			want.Reasons |= trace.ReasonVertexConstraint
			want.Violations = append(want.Violations, trace.Violation{
				Kind: trace.VertexValueViolation, SrcID: id, DstID: id, Value: pregel.CloneValue(v.Value())})
		}
		if err != nil && catchExc {
			want.Reasons |= trace.ReasonException
		}
		if want.Reasons == 0 {
			if sink.got != nil {
				t.Fatalf("seed %d: a capture was written without a reason", seed)
			}
			skipped++
			continue
		}
		if sink.got == nil {
			t.Fatalf("seed %d: no capture written, want reasons %v", seed, want.Reasons)
		}
		if (sink.exception != nil) != (err != nil) {
			t.Fatalf("seed %d: exception %v recorded for compute error %v", seed, sink.exception, err)
		}
		want.Exception = sink.exception // carries a stack trace; not a snapshot
		if wantBytes := recordBytes(t, func(w *trace.Writer) error { return w.WriteVertexCapture(want) }); !bytes.Equal(sink.got, wantBytes) {
			t.Fatalf("seed %d: frame differs from the object encoder's record\n got %x\nwant %x\ncapture %+v", seed, sink.got, wantBytes, want)
		}
		captured++
	}
	if captured < 200 || skipped == 0 {
		t.Errorf("%d captures compared, %d computes correctly uncaptured; the generator should produce plenty of the first and some of the second", captured, skipped)
	}
}

// TestCapturesImmuneToLaterMutation runs a job whose computation
// mutates its value and an edge value in place every superstep and
// sends along duplicate parallel edges under an in-place summing
// combiner (TestDuplicateEdgesMutatingCombiner's setup, where
// sender-side combining folds later sends into the first message's
// box). Every capture must read back as things stood when it was taken.
func TestCapturesImmuneToLaterMutation(t *testing.T) {
	const dup, steps = 5, 4
	for name, combiner := range map[string]pregel.Combiner{
		"rows": pregel.SumDoubleCombiner,
		"boxed": pregel.CombineFunc(func(to pregel.VertexID, a, b pregel.Value) pregel.Value {
			return pregel.SumDoubleCombiner.Combine(to, a, b)
		}),
	} {
		t.Run(name, func(t *testing.T) {
			g := pregel.NewGraph()
			g.AddVertex(0, pregel.NewDouble(0))
			g.AddVertex(1, pregel.NewDouble(0))
			for i := 0; i < dup; i++ {
				g.AddEdge(1, 0, pregel.NewLong(0)) // duplicate parallel edges
			}
			alg := &algorithms.Algorithm{
				Name:          "mutator",
				Combiner:      combiner,
				MaxSupersteps: steps,
				Compute: pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
					v.Value().(*pregel.DoubleValue).Set(float64(ctx.Superstep() + 1))
					if v.ID() == 1 {
						v.Edges()[0].Value.(*pregel.LongValue).Set(int64(ctx.Superstep() + 1))
						ctx.SendMessageToAllEdges(v, pregel.NewDouble(0.25))
					}
					return nil
				}),
			}
			view, _, err := runDebugged(t, alg, g, pregel.Config{NumWorkers: 2}, DebugConfig{CaptureAllActive: true})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < steps; s++ {
				c := view.Capture(s, 1)
				if c == nil {
					t.Fatalf("superstep %d: vertex 1 not captured", s)
				}
				if !pregel.ValuesEqual(c.ValueBefore, pregel.NewDouble(float64(s))) || !pregel.ValuesEqual(c.ValueAfter, pregel.NewDouble(float64(s+1))) {
					t.Errorf("superstep %d: value %v -> %v, want %d -> %d", s, c.ValueBefore, c.ValueAfter, s, s+1)
				}
				if len(c.Edges) != dup || !c.EdgesPreCompute || !pregel.ValuesEqual(c.Edges[0].Value, pregel.NewLong(int64(s))) {
					t.Errorf("superstep %d: pre-compute edges = %v, want first edge value %d", s, c.Edges, s)
				}
				if len(c.Outgoing) != dup {
					t.Fatalf("superstep %d: %d outgoing messages, want %d", s, len(c.Outgoing), dup)
				}
				for i, m := range c.Outgoing {
					if m.To != 0 || !pregel.ValuesEqual(m.Value, pregel.NewDouble(0.25)) {
						t.Errorf("superstep %d: outgoing[%d] = %v to %d, want 0.25 to 0 (the combiner's sum leaked into the record)", s, i, m.Value, m.To)
					}
				}
				if r := view.Capture(s, 0); s > 0 && (r == nil || len(r.Incoming) != 1 || !pregel.ValuesEqual(r.Incoming[0], pregel.NewDouble(dup*0.25))) {
					t.Errorf("superstep %d: receiver capture = %+v, want one combined message of %v", s, r, dup*0.25)
				}
			}
		})
	}
}

// gcCaptureFixture is one worker's steady state on the capture-bound
// benchmark: a graph-colouring vertex with three neighbours receiving
// two priority messages and sending one to each neighbour, every
// context captured into a MemFS-backed sink.
func gcCaptureFixture(tb testing.TB) (comp pregel.Computation, ctx *stubContext, v *pregel.Vertex, msgs []pregel.Value, session *Graft) {
	g := pregel.NewGraph()
	for id := pregel.VertexID(0); id < 4; id++ {
		g.AddVertex(id, &algorithms.GCValue{Color: -1, Priority: uint64(id)})
	}
	for id := pregel.VertexID(1); id < 4; id++ {
		g.AddEdge(0, id, nil)
	}
	session, err := Attach(trace.NewStore(dfs.NewMemFS(), "t"), Options{JobID: "j", NumWorkers: 1}, g,
		DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
	if err != nil {
		tb.Fatal(err)
	}
	out := &algorithms.GCMessage{Type: algorithms.GCMsgPriority, From: 0, Priority: 1 << 40}
	user := pregel.ComputeFunc(func(c pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		for _, e := range v.Edges() {
			c.SendMessage(e.Target, out)
		}
		return nil
	})
	msgs = []pregel.Value{
		&algorithms.GCMessage{From: 1, Priority: 1 << 41},
		&algorithms.GCMessage{From: 2, Priority: 1 << 42},
	}
	return session.Instrument(user), &stubContext{superstep: 3}, g.Vertex(0), msgs, session
}

// TestCaptureAllocations gates the clone-free path: capturing a context
// under CaptureAllActive allocates at most once (amortized: batch and
// segment buffers growing), where cloning it into a VertexCapture took
// a dozen.
func TestCaptureAllocations(t *testing.T) {
	comp, ctx, v, msgs, session := gcCaptureFixture(t)
	defer session.JobFinished(nil, nil)
	allocs := testing.AllocsPerRun(20000, func() {
		if err := comp.Compute(ctx, v, msgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("%.2f allocations per capture, want <= 1", allocs)
	}
	if session.Captures() < 20000 {
		t.Errorf("%d captures written; the loop did not capture", session.Captures())
	}
}

// BenchmarkCapture is the capture hot path alone: one worker,
// CaptureAllActive, graph-colouring value types, the asynchronous sink
// over MemFS with a barrier flush every 4,096 captures. One op is one
// capture, so ns/op, allocs/op and B/op are per capture (B/op includes
// the 130 bytes MemFS keeps of each).
func BenchmarkCapture(b *testing.B) {
	comp, ctx, v, msgs, session := gcCaptureFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comp.Compute(ctx, v, msgs); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			ctx.superstep++
			session.BarrierFlush(ctx.superstep)
		}
	}
	b.StopTimer()
	session.JobFinished(nil, nil)
}
