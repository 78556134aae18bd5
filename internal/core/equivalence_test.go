package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// alwaysRecord is the interceptor as it stood before the check-only
// path: once a superstep is observed, every vertex computes under the
// recording context — value and sends snapshotted whether or not a
// capture follows — and the decision to capture is taken afterwards.
// It is kept here as the reference the two-path interceptor must be
// indistinguishable from at the sink. The one deliberate difference
// from the old code is marked below.
type alwaysRecord struct {
	g    *Graft
	user pregel.Computation
}

func (ic *alwaysRecord) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	g := ic.g
	superstep := ctx.Superstep()
	if !g.cfg.observes(superstep) {
		return ic.user.Compute(ctx, v, msgs)
	}
	rec := &g.workers[ctx.WorkerID()].rec
	rec.reset(ctx, v)
	rec.before.Reset()
	rec.violations = rec.violations[:0]

	staticReason := g.reasons[v.ID()]
	needPre := staticReason != 0 || g.cfg.CaptureAllActive
	// The old code left ValueBefore nil under CaptureExceptions alone;
	// the snapshot the re-run needs anyway fixed that.
	if needPre || g.cfg.capturesPostHoc() || g.cfg.IncomingMessageConstraint != nil {
		rec.snapshot(v)
	}
	if needPre {
		trace.PutEdges(&rec.edges, v.Edges())
	}
	sawIncomingViolation := false
	if g.cfg.IncomingMessageConstraint != nil {
		for _, m := range msgs {
			if !g.cfg.IncomingMessageConstraint(m, v.Value(), v.ID(), superstep) {
				sawIncomingViolation = true
				rec.violations = append(rec.violations, trace.Violation{
					Kind:  trace.IncomingMessageViolation,
					SrcID: -1,
					DstID: v.ID(),
					Value: pregel.CloneValue(m),
				})
			}
		}
	}

	var exc *trace.ExceptionInfo
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				stack := string(debug.Stack())
				exc = &trace.ExceptionInfo{Message: fmt.Sprint(p), Stack: stack}
				err = &PanicError{Value: p, Stack: stack}
			}
		}()
		return ic.user.Compute(rec, v, msgs)
	}()
	if err != nil && exc == nil {
		exc = &trace.ExceptionInfo{Message: err.Error()}
	}

	reasons := staticReason
	if g.cfg.CaptureAllActive {
		reasons |= trace.ReasonAllActive
	}
	if err == nil && g.cfg.VertexValueConstraint != nil &&
		!g.cfg.VertexValueConstraint(v.Value(), v.ID(), superstep) {
		reasons |= trace.ReasonVertexConstraint // capture appends the violation
	}
	if rec.sawMsgViolation {
		reasons |= trace.ReasonMessageConstraint
	}
	if sawIncomingViolation {
		reasons |= trace.ReasonIncomingConstraint
	}
	if err != nil && g.cfg.CaptureExceptions {
		reasons |= trace.ReasonException
	}
	if reasons != 0 {
		if !needPre {
			trace.PutEdges(&rec.edges, v.Edges())
		}
		rec.reasons = reasons
		g.capture(v, msgs, &rec.record, needPre, v.Halted(), exc)
	}
	return err
}

// laneTape is one worker's sink for the equivalence runs: the frames it
// is handed, in order, as the reference writer's bytes, with a line per
// frame for a readable failure.
type laneTape struct {
	trace.RecordSink // nil: only vertex frames arrive
	w                *trace.Writer
	buf              closableBuffer
	lines            []string
	reruns           int // sends recorded by frames that only a re-run can have produced
}

// preCompute are the reasons known before a vertex computes: a capture
// with none of them was triggered afterwards.
const preCompute = trace.ReasonByID | trace.ReasonRandom | trace.ReasonNeighbor |
	trace.ReasonAllActive | trace.ReasonIncomingConstraint

func (l *laneTape) WriteVertexFrame(f *trace.VertexFrame) error {
	l.lines = append(l.lines, fmt.Sprintf("superstep %d vertex %d [%s] out=%d violations=%d",
		f.Superstep, f.ID, f.Reasons, f.NumOutgoing, len(f.Violations)))
	if f.Reasons&preCompute == 0 {
		l.reruns += f.NumOutgoing
	}
	if f.Exception != nil { // the two interceptors panic at different depths
		g := *f
		g.Exception = &trace.ExceptionInfo{Message: f.Exception.Message}
		f = &g
	}
	return l.w.WriteVertexFrame(f)
}

// runOutcome is what a job did as far as anyone but the debugger can
// tell: its supersteps and traffic, what every superstep was told and
// reported, and the graph it left.
type runOutcome struct {
	err   string
	steps []string
	graph string

	totalMessages, processed int64
}

// stepLog is the listener both kinds of run report through.
type stepLog struct {
	steps     []string
	processed int64
}

func (l *stepLog) JobStarted(pregel.JobInfo) {}
func (l *stepLog) SuperstepStarted(s int, info pregel.SuperstepInfo) {
	names := make([]string, 0, len(info.Aggregated))
	for name := range info.Aggregated {
		names = append(names, name)
	}
	sort.Strings(names)
	line := fmt.Sprintf("%d: V=%d E=%d", s, info.NumVertices, info.NumEdges)
	for _, name := range names {
		line += fmt.Sprintf(" %s=%x", name, pregel.MarshalValue(info.Aggregated[name]))
	}
	l.steps = append(l.steps, line)
}
func (l *stepLog) SuperstepFinished(s int, ss pregel.SuperstepStats) {
	l.processed += ss.VerticesProcessed
	l.steps = append(l.steps, fmt.Sprintf("%d: active=%d sent=%d received=%d combined=%d processed=%d",
		s, ss.ActiveAtEnd, ss.MessagesSent, ss.MessagesReceived, ss.MessagesCombined, ss.VerticesProcessed))
}
func (l *stepLog) JobFinished(*pregel.Stats, error) {}

// graphState digests values, halting aside, and topology: the applied
// mutations are in it.
func graphState(g *pregel.Graph) string {
	h := fnv.New64a()
	e := pregel.NewEncoder()
	for _, id := range g.VertexIDs() {
		v := g.Vertex(id)
		e.Reset()
		e.PutVarint(int64(id))
		pregel.EncodeTyped(e, v.Value())
		trace.PutEdges(e, v.Edges())
		h.Write(e.Bytes())
	}
	return fmt.Sprintf("%d vertices, %d edges, values %s, state %x", g.NumVertices(), g.NumEdges(), g.ValuesDigest()[:12], h.Sum64())
}

// equivRun runs alg over g with `workers` workers. With dc nil the job
// is undebugged; otherwise a session is attached and wrap chooses the
// interceptor (nil: the real one). It returns the outcome and, for a
// debugged run, the per-worker tapes.
func equivRun(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, workers int, dc *DebugConfig,
	wrap func(*Graft, pregel.Computation) pregel.Computation) (runOutcome, []*laneTape) {
	t.Helper()
	log := &stepLog{}
	cfg := pregel.Config{NumWorkers: workers, Listener: log, Master: alg.Master,
		Combiner: alg.Combiner, MaxSupersteps: alg.MaxSupersteps}
	comp := alg.Compute
	var tapes []*laneTape
	if dc != nil {
		session, err := Attach(context.Background(), trace.NewStore(dfs.NewMemFS(), "t"),
			trace.JobMeta{JobID: "j", Algorithm: alg.Name, NumWorkers: workers}, g, *dc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range session.workerSinks {
			tape := &laneTape{}
			if tape.w, err = trace.NewWriter(&tape.buf); err != nil {
				t.Fatal(err)
			}
			tapes = append(tapes, tape)
			session.workerSinks[i] = tape
		}
		cfg.Listener = session.Chain(log)
		cfg.Master = session.InstrumentMaster(alg.Master)
		if wrap != nil {
			comp = wrap(session, comp)
		} else {
			comp = session.Instrument(comp)
		}
	}
	job := pregel.NewJob(g, comp, cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	stats, err := job.Run()
	out := runOutcome{steps: log.steps, graph: graphState(g), processed: log.processed}
	var ce *pregel.ComputeError // the engine and the interceptor word a panic differently
	if errors.As(err, &ce) {
		out.err = fmt.Sprintf("compute of vertex %d failed at superstep %d", ce.VertexID, ce.Superstep)
	} else if err != nil {
		out.err = err.Error()
	}
	if stats != nil {
		out.totalMessages = stats.TotalMessages
		out.steps = append(out.steps, fmt.Sprintf("supersteps=%d reason=%v messages=%d", stats.Supersteps, stats.Reason, stats.TotalMessages))
	}
	for _, tape := range tapes {
		if err := tape.w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out, tapes
}

func (o runOutcome) diff(want runOutcome) string {
	if o.err != want.err {
		return fmt.Sprintf("job error %q, want %q", o.err, want.err)
	}
	if o.graph != want.graph {
		return fmt.Sprintf("final graph: %s, want %s", o.graph, want.graph)
	}
	if got, w := strings.Join(o.steps, "\n"), strings.Join(want.steps, "\n"); got != w {
		return fmt.Sprintf("supersteps differ:\n%s\nwant:\n%s", got, w)
	}
	return ""
}

// sometimes is a constraint verdict from the value's bytes and the
// vertex it concerns: false for about one in five.
func sometimes(v pregel.Value, id pregel.VertexID) bool {
	h := fnv.New32a()
	h.Write(pregel.MarshalValue(v))
	h.Write([]byte{byte(id), byte(id >> 8)})
	return h.Sum32()%5 != 0
}

// equivConfigs are Table 3's five configurations, the three capture
// categories they leave out, and three that exist to force re-runs: on
// every sender, on every vertex, and on a scattered fifth of both.
func equivConfigs() []struct {
	name string
	dc   DebugConfig
} {
	nonNegMsg := NonNegativeMessages
	nonNegValue := func(v pregel.Value, id pregel.VertexID, s int) bool { return NonNegativeMessages(v, id, id, s) }
	return []struct {
		name string
		dc   DebugConfig
	}{
		{"DC-sp", DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3, 4, 5}, CaptureExceptions: true}},
		{"DC-sp+nbr", DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3, 4, 5}, CaptureNeighbors: true, CaptureExceptions: true}},
		{"DC-msg", DebugConfig{MessageConstraint: nonNegMsg, CaptureExceptions: true}},
		{"DC-vv", DebugConfig{VertexValueConstraint: nonNegValue, CaptureExceptions: true}},
		{"DC-full", DebugConfig{CaptureIDs: []pregel.VertexID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, CaptureNeighbors: true,
			MessageConstraint: nonNegMsg, VertexValueConstraint: nonNegValue, CaptureExceptions: true}},
		{"exceptions-only", DebugConfig{CaptureExceptions: true}},
		{"all-active", DebugConfig{CaptureAllActive: true}},
		{"incoming", DebugConfig{IncomingMessageConstraint: func(m, _ pregel.Value, dst pregel.VertexID, _ int) bool {
			return sometimes(m, dst)
		}}},
		{"msg-always-false", DebugConfig{MessageConstraint: func(pregel.Value, pregel.VertexID, pregel.VertexID, int) bool { return false }}},
		{"vv-always-false", DebugConfig{VertexValueConstraint: func(pregel.Value, pregel.VertexID, int) bool { return false }}},
		{"scattered", DebugConfig{
			NumRandomCaptures: 4, RandomSeed: 3, CaptureExceptions: true,
			MessageConstraint:     func(m pregel.Value, _, dst pregel.VertexID, _ int) bool { return sometimes(m, dst) },
			VertexValueConstraint: func(v pregel.Value, id pregel.VertexID, _ int) bool { return sometimes(v, id) },
			IncomingMessageConstraint: func(m, _ pregel.Value, dst pregel.VertexID, _ int) bool {
				return sometimes(m, dst+1)
			},
		}},
	}
}

// TestInterceptorEquivalence is the two-path interceptor's contract,
// over the six algorithms the paper and the benchmarks run, their
// planted-bug variants and a compute that panics half-way:
//
//   - at the sink it is the always-record interceptor: the same frames,
//     byte for byte, in the same order on every worker — whether a
//     record was built as the vertex computed or from a re-run;
//   - to the job it is not there: supersteps, per-superstep traffic and
//     combining, aggregator broadcasts, applied mutations and final
//     values are the undebugged run's, also when every vertex is
//     re-run;
//   - every predicate still sees every message the job sends and every
//     value a compute leaves.
func TestInterceptorEquivalence(t *testing.T) {
	halfWay := func(inner pregel.Computation) pregel.Computation {
		return pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 2 && v.ID() == 40 {
				ctx.SendMessage(41, pregel.NewDouble(0.5))
				v.SetValue(pregel.NewDouble(-1))
				panic("planted: index out of range")
			}
			return inner.Compute(ctx, v, msgs)
		})
	}
	cases := []struct {
		name  string
		alg   func() *algorithms.Algorithm
		build func() *pregel.Graph
	}{
		{"pagerank", func() *algorithms.Algorithm { return algorithms.NewPageRank(6, 0.85) },
			func() *pregel.Graph { return graphgen.WebGraph(150, 4, 3) }},
		{"sssp", func() *algorithms.Algorithm { return algorithms.NewSSSP(0) },
			func() *pregel.Graph { return graphgen.SocialGraph(150, 4, 5) }},
		{"gc", func() *algorithms.Algorithm { return algorithms.NewGraphColoring(42) },
			func() *pregel.Graph { return graphgen.RegularBipartite(120, 3) }},
		{"gc-buggy", func() *algorithms.Algorithm { return algorithms.NewBuggyGraphColoring(42) },
			func() *pregel.Graph { return graphgen.RegularBipartite(120, 3) }},
		{"rw", func() *algorithms.Algorithm { return algorithms.NewRandomWalk(9, 6) },
			func() *pregel.Graph { return graphgen.WebGraph(150, 4, 7) }},
		{"rw16", func() *algorithms.Algorithm { return algorithms.NewRandomWalk16(9, 8) },
			func() *pregel.Graph { return graphgen.WebGraph(2000, 5, 11) }},
		{"kcore", func() *algorithms.Algorithm { return algorithms.NewKCore(3) },
			func() *pregel.Graph { return graphgen.SocialGraph(150, 4, 9) }},
		{"mwm", func() *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(60) },
			func() *pregel.Graph { return graphgen.SocialGraph(120, 4, 11) }},
		{"mwm-asymmetric", func() *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(24) },
			func() *pregel.Graph {
				g := graphgen.SocialGraph(120, 4, 11)
				graphgen.CorruptWeights(g, 0.1, 5)
				graphgen.PlantPreferenceCycle(g)
				return g
			}},
		{"pagerank-panics", func() *algorithms.Algorithm {
			alg := algorithms.NewPageRank(6, 0.85)
			alg.Compute = halfWay(alg.Compute)
			return alg
		}, func() *pregel.Graph { return graphgen.WebGraph(150, 4, 3) }},
	}
	reference := func(g *Graft, user pregel.Computation) pregel.Computation {
		return &alwaysRecord{g: g, user: user}
	}
	frames, rerunFrames := 0, 0
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			plain, _ := equivRun(t, tc.alg(), tc.build(), workers, nil, nil)
			for _, cfg := range equivConfigs() {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.name, cfg.name, workers), func(t *testing.T) {
					// Count the predicates' calls from outside.
					dc, ref := cfg.dc, cfg.dc
					var msgCalls, valueCalls, inCalls, refInCalls atomic.Int64
					if ok := cfg.dc.MessageConstraint; ok != nil {
						dc.MessageConstraint = func(m pregel.Value, src, dst pregel.VertexID, s int) bool {
							msgCalls.Add(1)
							return ok(m, src, dst, s)
						}
					}
					if ok := cfg.dc.IncomingMessageConstraint; ok != nil {
						counted := func(n *atomic.Int64) func(m, v pregel.Value, id pregel.VertexID, s int) bool {
							return func(m, v pregel.Value, id pregel.VertexID, s int) bool {
								n.Add(1)
								return ok(m, v, id, s)
							}
						}
						dc.IncomingMessageConstraint, ref.IncomingMessageConstraint = counted(&inCalls), counted(&refInCalls)
					}
					if ok := cfg.dc.VertexValueConstraint; ok != nil {
						dc.VertexValueConstraint = func(v pregel.Value, id pregel.VertexID, s int) bool {
							valueCalls.Add(1)
							return ok(v, id, s)
						}
					}

					got, gotTapes := equivRun(t, tc.alg(), tc.build(), workers, &dc, nil)
					want, wantTapes := equivRun(t, tc.alg(), tc.build(), workers, &ref, reference)

					if d := got.diff(plain); d != "" {
						t.Errorf("the debugged job is not the undebugged job: %s", d)
					}
					if d := want.diff(plain); d != "" {
						t.Fatalf("the reference interceptor perturbs the job, the comparison means nothing: %s", d)
					}
					reruns := 0
					for w := range gotTapes {
						g, r := gotTapes[w], wantTapes[w]
						frames += len(g.lines)
						reruns += g.reruns
						if g.reruns > 0 {
							rerunFrames++
						}
						if a, b := strings.Join(g.lines, "\n"), strings.Join(r.lines, "\n"); a != b {
							t.Fatalf("worker %d captured\n%s\nthe always-record interceptor captured\n%s", w, a, b)
						}
						if !bytes.Equal(g.buf.Bytes(), r.buf.Bytes()) {
							t.Fatalf("worker %d: the same %d captures, different bytes", w, len(g.lines))
						}
					}
					if inCalls.Load() != refInCalls.Load() {
						t.Errorf("incoming-message constraint evaluated %d times, the always-record interceptor's once per delivered message is %d",
							inCalls.Load(), refInCalls.Load())
					}
					if got.err != "" {
						return // a failed superstep's traffic is in no total
					}
					if dc.MessageConstraint != nil {
						if want := got.totalMessages + int64(reruns); msgCalls.Load() != want {
							t.Errorf("message constraint evaluated %d times, want %d: once for each of the job's %d messages and once for each of the %d a re-run recorded",
								msgCalls.Load(), want, got.totalMessages, reruns)
						}
					}
					if dc.VertexValueConstraint != nil && valueCalls.Load() != got.processed {
						t.Errorf("vertex-value constraint evaluated %d times over %d computes", valueCalls.Load(), got.processed)
					}
				})
			}
		}
	}
	if frames < 10000 || rerunFrames < 50 {
		t.Errorf("%d frames compared, %d worker tapes held re-run captures: the matrix should produce plenty of both", frames, rerunFrames)
	}
}
