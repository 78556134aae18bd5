package core

import (
	"reflect"
	"testing"
	"time"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// TestCaptureSamplerStride: in each superstep a worker times its first
// sampleStride records with weight 1, then every sampleStride-th with
// weight sampleStride, and reads no clock for the others, so the
// weights of whole strides sum to the records seen.
func TestCaptureSamplerStride(t *testing.T) {
	var s capSlot
	for superstep := range 2 {
		if sum := strideWeights(t, &s, superstep); s.records != 5*sampleStride || sum != s.records {
			t.Errorf("superstep %d: %d records seen, weights sum to %d; want %d each", superstep, s.records, sum, 5*sampleStride)
		}
	}
}

// strideWeights begins five strides of records in superstep, checks
// each record's weight and clock reads, and returns the weights' sum.
func strideWeights(t *testing.T, s *capSlot, superstep int) int64 {
	t.Helper()
	var sum int64
	for i := 0; i < 5*sampleStride; i++ {
		s.start, s.nanos = time.Time{}, 0
		s.begin(superstep)
		var want int64
		switch {
		case i < sampleStride:
			want = 1
		case i%sampleStride == 0:
			want = sampleStride
		}
		if s.weight != want {
			t.Fatalf("superstep %d record %d: weight %d, want %d", superstep, i, s.weight, want)
		}
		if s.start.IsZero() != (want == 0) {
			t.Fatalf("record %d (weight %d): clock read = %v", i, want, !s.start.IsZero())
		}
		// A timed stretch adds its time times the weight; an untimed
		// record adds nothing.
		s.start = time.Now().Add(-time.Millisecond)
		s.pause()
		if min := want * time.Millisecond.Nanoseconds(); (want == 0) != (s.nanos == 0) || s.nanos < min {
			t.Fatalf("record %d (weight %d): estimate %d ns after a 1 ms stretch", i, want, s.nanos)
		}
		sum += s.weight
	}
	return sum
}

// superstepLog keeps every superstep's stats.
type superstepLog struct{ steps []pregel.SuperstepStats }

func (*superstepLog) JobStarted(pregel.JobInfo)                  {}
func (*superstepLog) SuperstepStarted(int, pregel.SuperstepInfo) {}
func (*superstepLog) JobFinished(*pregel.Stats, error)           {}
func (l *superstepLog) SuperstepFinished(_ int, ss pregel.SuperstepStats) {
	l.steps = append(l.steps, ss)
}

// tickJob runs n vertices of degree edges that set their value to the
// superstep for steps supersteps on one worker, every vertex captured
// in each, and returns each superstep's stats and the worker's total
// estimate.
func tickJob(t *testing.T, n, edges, steps int) ([]pregel.SuperstepStats, time.Duration) {
	t.Helper()
	g := pregel.NewGraph()
	for id := range n {
		g.AddVertex(pregel.VertexID(id), pregel.NewLong(0))
	}
	for id := range n {
		for e := range edges {
			if err := g.AddEdge(pregel.VertexID(id), pregel.VertexID((id+e)%n), pregel.NewLong(int64(e))); err != nil {
				t.Fatal(err)
			}
		}
	}
	alg := &algorithms.Algorithm{Name: "tick", Compute: pregel.ComputeFunc(
		func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
			v.SetValue(pregel.NewLong(int64(ctx.Superstep())))
			return nil
		})}
	log := &superstepLog{}
	cfg := pregel.Config{NumWorkers: 1, MaxSupersteps: steps, Listener: log}
	_, session, err := runDebugged(t, alg, g, cfg, DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.steps) != steps || session.Captures() != int64(n*steps) {
		t.Fatalf("%d supersteps, %d captures; want %d and %d", len(log.steps), session.Captures(), steps, n*steps)
	}
	return log.steps, time.Duration(session.capSlots[0].nanos)
}

// TestCaptureTimeSparse: a worker that builds fewer than sampleStride
// records a superstep times every one of them, so each superstep's
// estimate is its exact capture time and the rows add up to the
// worker's total, however many records the job built before.
func TestCaptureTimeSparse(t *testing.T) {
	steps, total := tickJob(t, 1, 0, 3*sampleStride+1)
	var sum time.Duration
	for _, ss := range steps {
		w := ss.Workers[0]
		if w.CaptureTime <= 0 || w.CaptureTime > w.ComputeTime {
			t.Errorf("superstep %d: capture %v of compute %v; want a timed record within it", ss.Superstep, w.CaptureTime, w.ComputeTime)
		}
		sum += w.CaptureTime
	}
	if sum != total {
		t.Errorf("supersteps sum to %v of capture time, the worker's total is %v", sum, total)
	}
}

// TestCaptureTimeWithinComputeTime: in a superstep that builds
// sampleStride+1 records, the last carries the weight of a whole
// stride, and with record building (a thousand edges each) the bulk of
// the compute that would put the estimate near twice the compute time;
// the worker row still never claims more capture time than the worker
// computed.
func TestCaptureTimeWithinComputeTime(t *testing.T) {
	steps, _ := tickJob(t, sampleStride+1, 1000, 10)
	for _, ss := range steps {
		for _, w := range ss.Workers {
			if w.CaptureTime > w.ComputeTime {
				t.Errorf("superstep %d worker %d: capture %v > compute %v", ss.Superstep, w.Worker, w.CaptureTime, w.ComputeTime)
			}
		}
	}
}

// TestCapturesExact: Captures is the exact count of what was written,
// with and without a finite limit, however many workers add to it.
func TestCapturesExact(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, limit := range []int64{-1, 100} {
			log := &stepLog{}
			db, session, err := runDebugged(t, algorithms.NewConnectedComponents(), graphgen.RegularBipartite(60, 3),
				pregel.Config{NumWorkers: workers, Listener: log}, DebugConfig{CaptureAllActive: true, MaxCaptures: limit})
			if err != nil {
				t.Fatal(err)
			}
			want := log.processed
			if limit >= 0 {
				want = limit
			}
			if want <= 100 && limit < 0 {
				t.Fatalf("%d workers: only %d computes, under the limit case's 100", workers, want)
			}
			if got := session.Captures(); got != want || db.TotalCaptures() != want ||
				db.JobResult().Captures != want || session.LimitHit() != (limit >= 0) {
				t.Errorf("%d workers, MaxCaptures %d: Captures() = %d, trace holds %d, job.done %d, limit hit %v; want %d",
					workers, limit, got, db.TotalCaptures(), db.JobResult().Captures, session.LimitHit(), want)
			}
		}
	}
}

// TestPerWorkerFieldsOnOwnLines: what one worker writes while it
// computes is at least 128 bytes (an adjacent-line prefetch pair) from
// what the next worker writes, and the budget every worker claims from
// per capture under a finite limit is that far from the rest of the
// session.
// A field that eats into a pad fails here instead of false-sharing.
func TestPerWorkerFieldsOnOwnLines(t *testing.T) {
	const line = 128
	for _, typ := range []reflect.Type{reflect.TypeFor[workerState](), reflect.TypeFor[capSlot]()} {
		f := namedFields(typ)
		if gap := typ.Size() - f[len(f)-1].end + f[0].off; gap < line {
			t.Errorf("%v: %d bytes between a worker's fields and the next worker's, want >= %d", typ, gap, line)
		}
	}
	typ := reflect.TypeFor[Graft]()
	f := namedFields(typ)
	for i := range f {
		if f[i].name != "claimed" {
			continue
		}
		if i+1 == len(f) || f[i+1].name != "limitHit" {
			t.Fatalf("Graft.claimed is not followed by limitHit: %v", f)
		}
		next := typ.Size()
		if i+2 < len(f) {
			next = f[i+2].off
		}
		if before, after := f[i].off-f[i-1].end, next-f[i+1].end; before < line || after < line {
			t.Errorf("Graft.claimed/limitHit: %d bytes after the field before, %d before what follows; want >= %d each",
				before, after, line)
		}
		return
	}
	t.Fatal("Graft has no claimed field")
}

type fieldSpan struct {
	name     string
	off, end uintptr
}

// namedFields lists typ's fields other than blank pads, in order.
func namedFields(typ reflect.Type) []fieldSpan {
	var out []fieldSpan
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			out = append(out, fieldSpan{f.Name, f.Offset, f.Offset + f.Type.Size()})
		}
	}
	return out
}
