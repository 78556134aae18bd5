package graft

import (
	"context"
	"errors"
	"testing"
	"time"

	"graft/internal/algorithms"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// soloDigest runs alg over a fresh copy of the generator's graph in
// its own store and returns the canonical trace digest — the baseline
// the shared-session runs must reproduce bit for bit.
func soloDigest(t *testing.T, alg *algorithms.Algorithm, makeGraph func() *Graph, jobID string, dc DebugConfig) string {
	t.Helper()
	store := NewStore(NewMemFS(), "t")
	_, err := RunAlgorithm(makeGraph(), alg, RunOptions{
		JobID: jobID, Debug: &dc, Store: store,
		Engine: EngineConfig{NumWorkers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenTrace(store, jobID)
	if err != nil {
		t.Fatal(err)
	}
	return TraceDigest(v)
}

// TestSessionConcurrentJobsSharedCluster runs several debugged jobs
// concurrently against ONE shared DFS cluster and store, under a
// global worker budget, and asserts per-job isolation: each job's
// trace directory and metrics registry hold exactly that job's run,
// and every digest matches a solo run of the same job.
func TestSessionConcurrentJobsSharedCluster(t *testing.T) {
	cluster := NewCluster(4, 2, 4096)
	store := NewStore(cluster, "traces")
	sess, err := NewSession(SessionConfig{
		Store:             store,
		MaxConcurrentJobs: 3,
		MaxTotalWorkers:   4, // fewer slots than total workers: the pool must serialize, not deadlock
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	type spec struct {
		id   string
		alg  *algorithms.Algorithm
		make func() *Graph
	}
	specs := []spec{
		{"gc-a", algorithms.NewGraphColoring(1), func() *Graph { return graphgen.RegularBipartite(120, 3) }},
		{"gc-b", algorithms.NewGraphColoring(2), func() *Graph { return graphgen.RegularBipartite(120, 3) }},
		{"cc-c", algorithms.NewConnectedComponents(), func() *Graph { return graphgen.RegularBipartite(80, 3) }},
	}
	dc := DebugConfig{NumRandomCaptures: 10, RandomSeed: 7, CaptureExceptions: true}

	jobs := make([]*Job, len(specs))
	for i, sp := range specs {
		jobs[i], err = sess.SubmitAlgorithm(context.Background(), sp.make(), sp.alg, RunOptions{
			JobID: sp.id, Debug: &dc,
			Engine: EngineConfig{NumWorkers: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", specs[i].id, err)
		}
		if res.Captures == 0 {
			t.Errorf("%s: no captures", specs[i].id)
		}
		if st := j.State(); st != JobSucceeded {
			t.Errorf("%s: state = %v", specs[i].id, st)
		}
		// Metrics isolation: the job's registry saw only its own run.
		snap := j.Metrics().Snapshot()
		if snap.JobID != specs[i].id {
			t.Errorf("registry of %s holds job %q", specs[i].id, snap.JobID)
		}
		if len(snap.Supersteps) == 0 || snap.Running {
			t.Errorf("%s: metrics snapshot = %d supersteps, running=%v", specs[i].id, len(snap.Supersteps), snap.Running)
		}
	}
	// Trace isolation: each shared-store trace digests exactly like a
	// solo run of the same job in a private store.
	for _, sp := range specs {
		want := soloDigest(t, sp.alg, sp.make, sp.id, dc)
		v, err := OpenTrace(store, sp.id)
		if err != nil {
			t.Fatalf("open %s: %v", sp.id, err)
		}
		if got := TraceDigest(v); got != want {
			t.Errorf("%s: shared-session digest %s != solo digest %s", sp.id, got, want)
		}
		if v.JobMeta().JobID != sp.id {
			t.Errorf("trace of %s claims job %q", sp.id, v.JobMeta().JobID)
		}
	}
}

// TestSessionCancelDoesNotPerturbOtherJob cancels one job mid-run and
// asserts the concurrently running victim-free job still digests
// identically to its solo baseline.
func TestSessionCancelDoesNotPerturbOtherJob(t *testing.T) {
	alg := algorithms.NewGraphColoring(3)
	makeGraph := func() *Graph { return graphgen.RegularBipartite(150, 3) }
	dc := DebugConfig{NumRandomCaptures: 12, RandomSeed: 11, CaptureExceptions: true}
	want := soloDigest(t, alg, makeGraph, "survivor", dc)

	cluster := NewCluster(4, 2, 4096)
	store := NewStore(cluster, "traces")
	sess, err := NewSession(SessionConfig{Store: store, MaxConcurrentJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// The victim spins forever (every vertex keeps messaging) until
	// canceled.
	victimGraph := NewGraph()
	for i := 0; i < 64; i++ {
		victimGraph.AddVertex(VertexID(i), NewLong(0))
	}
	for i := 1; i < 64; i++ {
		if err := victimGraph.AddUndirectedEdge(VertexID(i-1), VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	spin := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		ctx.SendMessageToAllEdges(v, NewLong(int64(ctx.Superstep())))
		return nil
	})
	victim, err := sess.Submit(context.Background(), victimGraph, spin, RunOptions{
		Engine: EngineConfig{NumWorkers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := sess.SubmitAlgorithm(context.Background(), makeGraph(), alg, RunOptions{
		JobID: "survivor", Debug: &dc,
		Engine: EngineConfig{NumWorkers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(10 * time.Millisecond) // let the victim get going
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("victim err = %v, want context.Canceled", err)
	}
	if st := victim.State(); st != JobCanceled {
		t.Errorf("victim state = %v", st)
	}
	if _, err := survivor.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	v, err := OpenTrace(store, "survivor")
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceDigest(v); got != want {
		t.Errorf("survivor digest changed by the victim's cancellation: %s != %s", got, want)
	}
}

// cancelAt is a listener that cancels its job from inside one callback
// of one superstep, on the coordinator goroutine — so where in the
// barrier sequence the cancel lands is chosen, not raced for.
type cancelAt struct {
	cancel            context.CancelFunc
	started, finished int // superstep to cancel in; -1 never
}

func (c *cancelAt) JobStarted(pregel.JobInfo) {}
func (c *cancelAt) SuperstepStarted(superstep int, _ pregel.SuperstepInfo) {
	if superstep == c.started {
		c.cancel()
	}
}
func (c *cancelAt) SuperstepFinished(superstep int, _ pregel.SuperstepStats) {
	if superstep == c.finished {
		c.cancel()
	}
}
func (c *cancelAt) JobFinished(*pregel.Stats, error) {}

// TestJobCancelMidSuperstepBarrierConsistent cancels a debugged job at
// the two places a cancel can land relative to a superstep's records
// and asserts the contract: the partial stats come back with the
// error, Stats.Supersteps counts exactly the supersteps that folded,
// the trace is readable through them, and the job's checkpoints are
// garbage-collected. The trace may additionally hold the interrupted
// superstep — number Stats.Supersteps: its meta record, written when it
// was announced, and whatever was captured before the workers noticed —
// as it does for a superstep a Compute error interrupts; it never
// reaches past it.
func TestJobCancelMidSuperstepBarrierConsistent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		at       cancelAt
		traceMax int
	}{
		// After superstep 2's meta record, before its workers' first
		// poll: superstep 2 never folds, its meta is in the trace.
		{"between meta write and fold", cancelAt{started: 2, finished: -1}, 2},
		// After superstep 1 folded, before superstep 2 is announced.
		{"between fold and the next superstep", cancelAt{started: -1, finished: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			const n = 48
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			for i := 1; i < n; i++ {
				if err := g.AddUndirectedEdge(VertexID(i-1), VertexID(i), nil); err != nil {
					t.Fatal(err)
				}
			}
			chatty := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
				ctx.SendMessageToAllEdges(v, NewLong(1))
				return nil
			})

			store := NewStore(NewMemFS(), "t")
			ckptFS := NewMemFS()
			sess, err := NewSession(SessionConfig{Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tc.at.cancel = cancel
			dc := DebugConfig{CaptureIDs: []VertexID{0, 1}, CaptureExceptions: true}
			job, err := sess.Submit(ctx, g, chatty, RunOptions{
				JobID: "canceled", Debug: &dc,
				Engine: EngineConfig{
					NumWorkers:      4,
					CheckpointEvery: 1,
					CheckpointFS:    ckptFS,
					Listener:        &tc.at,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Wait(context.Background())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil || res.Stats == nil {
				t.Fatal("cancellation returned no partial stats")
			}
			// Barrier consistency: the engine starts no superstep after
			// the cancel, and counts none that did not fold.
			if res.Stats.Supersteps != 2 || len(res.Stats.PerSuperstep) != 2 {
				t.Errorf("Supersteps = %d with %d folded rows, want 2 and 2", res.Stats.Supersteps, len(res.Stats.PerSuperstep))
			}
			if got := len(job.Metrics().Snapshot().Supersteps); got != 2 {
				t.Errorf("registry folded %d supersteps, want 2", got)
			}
			if st := job.State(); st != JobCanceled {
				t.Errorf("state = %v", st)
			}

			v, err := OpenTrace(store, "canceled")
			if err != nil {
				t.Fatalf("canceled job's trace unreadable: %v", err)
			}
			for _, s := range v.Supersteps() {
				if v.MetaAt(s) == nil {
					t.Errorf("superstep %d in trace has no meta", s)
				}
			}
			if max := v.MaxSuperstep(); max != tc.traceMax {
				t.Errorf("trace reaches superstep %d with %d folded, want %d", max, res.Stats.Supersteps, tc.traceMax)
			}
			if caps := v.CapturesOf(0); len(caps) < res.Stats.Supersteps {
				t.Errorf("captured vertex 0 has %d contexts over %d folded supersteps", len(caps), res.Stats.Supersteps)
			}

			// The canceled job's checkpoints are gone (counted in FaultStats).
			names, err := ckptFS.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Errorf("checkpoints not GC'd after cancel: %v", names)
			}
			if res.Stats.Faults.CheckpointsDeleted == 0 {
				t.Error("no checkpoint deletions counted")
			}
		})
	}
}

// TestSessionAdmissionControl pins the typed rejections: queue
// saturation, per-job worker caps, duplicate IDs, closed sessions.
func TestSessionAdmissionControl(t *testing.T) {
	sess, err := NewSession(SessionConfig{
		Store:             NewStore(NewMemFS(), "t"),
		MaxConcurrentJobs: 1,
		MaxPendingJobs:    1,
		MaxWorkersPerJob:  2,
	})
	if err != nil {
		t.Fatal(err)
	}

	mk := func() *Graph {
		g := NewGraph()
		for i := 0; i < 8; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
		}
		return g
	}
	block := make(chan struct{})
	slow := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() == 0 {
			<-block
		}
		v.VoteToHalt()
		return nil
	})

	// Fill the one running slot, then the one pending slot.
	j1, err := sess.Submit(context.Background(), mk(), slow, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var j2 *Job
	// The first submit may still be draining the queue; admission
	// counts pending jobs, so retry until the queue slot is what fills.
	deadline := time.Now().Add(2 * time.Second)
	for {
		j2, err = sess.Submit(context.Background(), mk(), slow, RunOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second submit never admitted: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sess.Submit(context.Background(), mk(), slow, RunOptions{}); !errors.Is(err, ErrSessionFull) {
		t.Errorf("over-queue submit: err = %v, want ErrSessionFull", err)
	}

	// Per-job worker cap.
	if _, err := sess.Submit(context.Background(), mk(), slow, RunOptions{
		Engine: EngineConfig{NumWorkers: 8},
	}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("over-cap workers: err = %v, want ErrInvalidOptions", err)
	}
	// Contradictory engine config is typed through both sentinels.
	_, err = sess.Submit(context.Background(), mk(), slow, RunOptions{
		Engine: EngineConfig{CheckpointEvery: 2}, // no CheckpointFS
	})
	if !errors.Is(err, ErrInvalidOptions) || !errors.Is(err, pregel.ErrInvalidConfig) {
		t.Errorf("bad engine config: err = %v, want ErrInvalidOptions and ErrInvalidConfig", err)
	}
	// Duplicate trace directory.
	if _, err := sess.Submit(context.Background(), mk(), slow, RunOptions{JobID: j1.ID()}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("duplicate ID: err = %v, want ErrInvalidOptions", err)
	}

	close(block)
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(context.Background(), mk(), slow, RunOptions{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("post-close submit: err = %v, want ErrSessionClosed", err)
	}
}

// TestRunValidationTyped pins that the legacy Run facade rejects bad
// options with the new typed sentinel.
func TestRunValidationTyped(t *testing.T) {
	g := NewGraph()
	g.AddVertex(1, nil)
	dc := &DebugConfig{CaptureIDs: []VertexID{1}}
	if _, err := Run(g, algorithms.NewConnectedComponents().Compute, RunOptions{Debug: dc}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("missing store: err = %v, want ErrInvalidOptions", err)
	}
	if _, err := Run(g, algorithms.NewConnectedComponents().Compute, RunOptions{
		Engine: EngineConfig{MaxSupersteps: -1},
	}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative MaxSupersteps: err = %v, want ErrInvalidConfig", err)
	}
}

var _ = trace.Digest // keep the import if assertions above change

// TestSessionSurvivesCombinerPanic: a combiner that panics where
// messages meet at the barrier fails its own job and nothing else — the
// session (under graft serve, the process and every other job in it)
// goes on to run the next job.
func TestSessionSurvivesCombinerPanic(t *testing.T) {
	sess, err := NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	// One message per worker to vertex 0: nothing meets at a sender, so
	// the combiner first runs in the barrier's merge.
	comp := ComputeFunc(func(ctx Context, v *Vertex, _ []Value) error {
		if ctx.Superstep() == 0 {
			ctx.SendMessage(0, NewLong(1))
		}
		v.VoteToHalt()
		return nil
	})
	boom := pregel.CombineFunc(func(VertexID, Value, Value) Value { panic("boom") })
	bad, err := sess.Submit(context.Background(), g, comp, RunOptions{
		Engine: EngineConfig{NumWorkers: 4, Combiner: boom},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ce *pregel.ComputeError
	if _, err := bad.Wait(context.Background()); !errors.As(err, &ce) || ce.Panic != "boom" {
		t.Fatalf("job with a panicking combiner: err = %v, want a ComputeError carrying the panic", err)
	}
	if bad.State() != JobFailed {
		t.Errorf("state = %v, want failed", bad.State())
	}

	good, err := sess.SubmitAlgorithm(context.Background(), graphgen.RegularBipartite(40, 3),
		algorithms.NewConnectedComponents(), RunOptions{Engine: EngineConfig{NumWorkers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Wait(context.Background()); err != nil {
		t.Fatalf("job after the failed one: %v", err)
	}
}
