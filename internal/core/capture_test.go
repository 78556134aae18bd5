package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
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
func (c *stubContext) SendMessageToAllEdges(v *pregel.Vertex, msg pregel.Value) {
	for range v.Edges() {
		c.SendMessage(0, msg.Clone())
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

func cloneEdges(edges []pregel.Edge) []pregel.Edge {
	out := make([]pregel.Edge, len(edges))
	for i, e := range edges {
		out[i] = pregel.Edge{Target: e.Target, Value: pregel.CloneValue(e.Value)}
	}
	return out
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

// frameCase is everything one TestFrameMatchesObjectEncoder compute
// does, drawn up front from (seed, vertex, superstep): the instrumenter
// may run a Compute a second time to obtain its record, and a
// re-runnable Compute does the same thing both times.
type frameCase struct {
	sends     []trace.OutMsg // SendMessage calls, in order
	newValue  pregel.Value   // replaces a value that cannot change in place
	addEdge   *pregel.Edge   // appended, whatever edges there are
	touchEdge bool           // the first edge loses 5 in place, or is removed
	toAll     pregel.Value   // SendMessageToAllEdges payload, nil for none
	halt      bool
	failure   int // 0: return an error, 1: panic
}

func drawFrameCase(seed int64, id pregel.VertexID, superstep int) frameCase {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(id)<<8 ^ int64(superstep)))
	target := func() pregel.VertexID { return pregel.VertexID(100 + rng.Intn(6)) }
	var fc frameCase
	for i, n := 0, rng.Intn(4); i < n; i++ {
		fc.sends = append(fc.sends, trace.OutMsg{To: target(), Value: randomValue(rng, false)})
	}
	fc.newValue = randomValue(rng, true)
	if rng.Intn(2) == 0 {
		fc.addEdge = &pregel.Edge{Target: target(), Value: randomValue(rng, true)}
	}
	fc.touchEdge = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		fc.toAll = randomValue(rng, false)
	}
	fc.halt, fc.failure = rng.Intn(2) == 0, rng.Intn(6)
	return fc
}

// judged is a constraint verdict that depends on nothing but the
// value's bytes, so a message judged bad is bad again when a re-run
// sends its twin.
func judged(salt byte, v pregel.Value) bool {
	h := fnv.New32a()
	h.Write([]byte{salt})
	h.Write(pregel.MarshalValue(v))
	return h.Sum32()%3 == 0
}

// TestFrameMatchesObjectEncoder drives the instrumented computation
// over random vertices, debug configurations and compute behaviours —
// values replaced and mutated in place, edges added, removed and
// revalued, messages overwritten by the plane after they are sent,
// violations of all three kinds, errors and panics — and checks that
// the frame it hands the sink is, byte for byte, the record the object
// encoder writes for the VertexCapture built the old way: by cloning
// each piece at the moment it was current. Whether the instrumenter
// recorded that compute as it ran or re-ran it for the record is its
// business: the bytes are the same, and no capture carries
// ReasonNondeterministic.
func TestFrameMatchesObjectEncoder(t *testing.T) {
	captured, skipped, reran := 0, 0, 0
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
		dc := DebugConfig{CaptureAllActive: allActive, CaptureExceptions: catchExc}
		if byID {
			dc.CaptureIDs = []pregel.VertexID{id}
		}
		if rng.Intn(2) == 0 {
			dc.VertexValueConstraint = func(pregel.Value, pregel.VertexID, int) bool { return !badValue }
		}
		if rng.Intn(2) == 0 {
			dc.MessageConstraint = func(m pregel.Value, _, _ pregel.VertexID, _ int) bool { return !judged('o', m) }
		}
		if rng.Intn(2) == 0 {
			dc.IncomingMessageConstraint = func(m, _ pregel.Value, _ pregel.VertexID, _ int) bool { return !judged('i', m) }
		}

		msgs := make([]pregel.Value, rng.Intn(4))
		for i := range msgs {
			msgs[i] = randomValue(rng, false)
		}
		ctx := &stubContext{superstep: rng.Intn(40), worker: rng.Intn(3)}
		want := &trace.VertexCapture{
			Superstep: ctx.superstep, Worker: ctx.worker, ID: id,
			Incoming: make([]pregel.Value, len(msgs)),
		}
		if byID {
			want.Reasons |= trace.ReasonByID
		}
		if allActive {
			want.Reasons |= trace.ReasonAllActive
		}
		for i, m := range msgs {
			want.Incoming[i] = pregel.CloneValue(m)
			if dc.IncomingMessageConstraint != nil && judged('i', m) {
				want.Reasons |= trace.ReasonIncomingConstraint
				want.Violations = append(want.Violations, trace.Violation{
					Kind: trace.IncomingMessageViolation, SrcID: -1, DstID: id, Value: pregel.CloneValue(m)})
			}
		}
		// What is known before compute decides the path, the pre-compute
		// edge snapshot with it; the value before is in every record.
		static := allActive || byID
		want.EdgesPreCompute = static
		want.ValueBefore = pregel.CloneValue(v.Value())
		if static {
			want.Edges = cloneEdges(v.Edges())
		}

		calls := 0
		user := pregel.ComputeFunc(func(c pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
			fc := drawFrameCase(seed, v.ID(), c.Superstep())
			first := calls == 0 // want is the live run's; a re-run adds nothing to it
			calls++
			sent := func(to pregel.VertexID, m pregel.Value) {
				if !first {
					return
				}
				want.Outgoing = append(want.Outgoing, trace.OutMsg{To: to, Value: pregel.CloneValue(m)})
				if dc.MessageConstraint != nil && judged('o', m) {
					want.Reasons |= trace.ReasonMessageConstraint
					want.Violations = append(want.Violations, trace.Violation{
						Kind: trace.MessageViolation, SrcID: id, DstID: to, Value: pregel.CloneValue(m)})
				}
			}
			for _, m := range fc.sends {
				sent(m.To, m.Value)
				c.SendMessage(m.To, m.Value)
			}
			switch old := v.Value().(type) { // in place where the type allows
			case *pregel.LongValue:
				old.Set(old.Get() + 1)
			case *algorithms.GCValue:
				old.Color++
			default:
				v.SetValue(fc.newValue)
			}
			// Edge changes come between the sends, and running them twice
			// over the same edges would not leave what running them once
			// does: a re-run has to start from the edges of before.
			if fc.addEdge != nil {
				v.AddEdge(*fc.addEdge)
			}
			if edges := v.Edges(); len(edges) > 0 && fc.touchEdge {
				if l, ok := edges[0].Value.(*pregel.LongValue); ok {
					l.Set(l.Get() - 5)
				} else {
					v.RemoveEdges(edges[0].Target)
				}
			}
			if fc.toAll != nil {
				for _, e := range v.Edges() {
					sent(e.Target, fc.toAll)
				}
				c.SendMessageToAllEdges(v, fc.toAll)
			}
			if fc.halt {
				v.VoteToHalt()
			}
			switch fc.failure {
			case 0:
				return errors.New("compute failed")
			case 1:
				panic("compute panicked")
			}
			return nil
		})
		failure := drawFrameCase(seed, id, ctx.superstep).failure

		session, err := Attach(context.Background(), trace.NewStore(dfs.NewMemFS(), "t"), trace.JobMeta{JobID: "j", NumWorkers: 3}, g, dc)
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
		// Only a vertex nothing selected before compute, captured for what
		// its compute did, runs twice.
		wantCalls := 1
		if want.Reasons != 0 && !static && !want.Reasons.Has(trace.ReasonIncomingConstraint) {
			wantCalls = 2
			reran++
		}
		if calls != wantCalls {
			t.Fatalf("seed %d: compute ran %d time(s), want %d (reasons %v)", seed, calls, wantCalls, want.Reasons)
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
	if captured < 200 || skipped == 0 || reran < 50 {
		t.Errorf("%d captures compared (%d from a re-run), %d computes correctly uncaptured; the generator should produce plenty of the first two and some of the third", captured, reran, skipped)
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
	session, err := Attach(context.Background(), trace.NewStore(dfs.NewMemFS(), "t"), trace.JobMeta{JobID: "j", NumWorkers: 1}, g,
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

// quietContext is an engine that does nothing with what it is sent, so
// that what a benchmark over it measures is the interceptor.
type quietContext struct{ stubContext }

func (*quietContext) SendMessage(pregel.VertexID, pregel.Value)          {}
func (*quietContext) SendMessageToAllEdges(*pregel.Vertex, pregel.Value) {}

// checkOnlyFixture is one worker's steady state on pr-web-dcfull: a
// PageRank-shaped vertex of degree 8 that nothing selects — it sums its
// mail into its value and sends a share along every edge, allocating
// nothing itself — under Table 3's DC-full.
func checkOnlyFixture(tb testing.TB) (comp pregel.Computation, ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value, session *Graft) {
	g := pregel.NewGraph()
	for id := pregel.VertexID(0); id < 20; id++ {
		g.AddVertex(id, pregel.NewDouble(0.05))
	}
	for k := pregel.VertexID(1); k <= 8; k++ {
		g.AddEdge(19, 9+k, nil)
	}
	session, err := Attach(context.Background(), trace.NewStore(dfs.NewMemFS(), "t"), trace.JobMeta{JobID: "j", NumWorkers: 1}, g, DebugConfig{
		CaptureIDs:            []pregel.VertexID{1, 2, 3, 4, 5, 6, 7, 8, 9},
		CaptureNeighbors:      true,
		MessageConstraint:     NonNegativeMessages,
		VertexValueConstraint: func(val pregel.Value, id pregel.VertexID, s int) bool { return NonNegativeMessages(val, id, id, s) },
		CaptureExceptions:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	share := pregel.NewDouble(0)
	user := pregel.ComputeFunc(func(c pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		sum := 0.0
		for _, m := range msgs {
			sum += m.(*pregel.DoubleValue).Get()
		}
		v.Value().(*pregel.DoubleValue).Set(0.15/20 + 0.85*sum)
		share.Set(sum / float64(v.NumEdges()))
		c.SendMessageToAllEdges(v, share)
		return nil
	})
	msgs = []pregel.Value{pregel.NewDouble(0.01), pregel.NewDouble(0.02), pregel.NewDouble(0.03)}
	return session.Instrument(user), &quietContext{stubContext{superstep: 3}}, g.Vertex(19), msgs, session
}

// TestCheckOnlyAllocations gates the check-only path: a vertex that is
// not a capture target and violates nothing computes under DC-full
// without one allocation — the value snapshot goes into the worker's
// scratch, and no message is cloned or encoded.
func TestCheckOnlyAllocations(t *testing.T) {
	comp, ctx, v, msgs, session := checkOnlyFixture(t)
	defer session.JobFinished(nil, nil)
	allocs := testing.AllocsPerRun(20000, func() {
		if err := comp.Compute(ctx, v, msgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%.2f allocations per check-only compute, want 0", allocs)
	}
	if session.Captures() != 0 {
		t.Errorf("%d captures written; the fixture's vertex should be nobody's target", session.Captures())
	}
}

// BenchmarkIntercept is the interception hot path alone: one op is one
// check-only compute of the degree-8 vertex — a value snapshot, eight
// message-constraint calls, one value-constraint call — over an engine
// that does nothing, so ns/op is what DC-full adds to a PageRank vertex
// and allocs/op must read 0.
func BenchmarkIntercept(b *testing.B) {
	comp, ctx, v, msgs, session := checkOnlyFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comp.Compute(ctx, v, msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	session.JobFinished(nil, nil)
}
