package pregel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"graft/internal/dfs"
)

// TestJobLeavesNoGoroutines checks that a job's worker goroutines end
// with it, whichever way it ends, and that two jobs sharing a one-slot
// WorkerPool both finish while each coordinator holds a slot for its
// own share.
func TestJobLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		job     func(t *testing.T, w int) (*Job, context.Context)
		wantErr bool
	}{
		{"converged", func(t *testing.T, w int) (*Job, context.Context) {
			return NewJob(pathGraph(t, 200), ccCompute, Config{NumWorkers: w}), context.Background()
		}, false},
		{"max-supersteps", func(t *testing.T, w int) (*Job, context.Context) {
			return NewJob(pathGraph(t, 200), ccCompute, Config{NumWorkers: w, MaxSupersteps: 3}), context.Background()
		}, false},
		{"canceled", func(t *testing.T, w int) (*Job, context.Context) {
			ctx, cancel := context.WithCancel(context.Background())
			comp := ComputeFunc(func(c Context, v *Vertex, msgs []Value) error {
				if c.Superstep() == 2 && v.ID() == 100 {
					cancel()
				}
				return ccCompute(c, v, msgs)
			})
			return NewJob(pathGraph(t, 200), comp, Config{NumWorkers: w}), ctx
		}, true},
		{"compute-error", func(t *testing.T, w int) (*Job, context.Context) {
			comp := ComputeFunc(func(c Context, v *Vertex, msgs []Value) error {
				if c.Superstep() == 1 && v.ID() == 7 {
					return boom
				}
				return ccCompute(c, v, msgs)
			})
			return NewJob(pathGraph(t, 200), comp, Config{NumWorkers: w}), context.Background()
		}, true},
		{"compute-panic", func(t *testing.T, w int) (*Job, context.Context) {
			comp := ComputeFunc(func(c Context, v *Vertex, msgs []Value) error {
				if c.Superstep() == 1 && v.ID() == 7 {
					panic("kaboom")
				}
				return ccCompute(c, v, msgs)
			})
			return NewJob(pathGraph(t, 200), comp, Config{NumWorkers: w}), context.Background()
		}, true},
		{"combiner-panic", func(t *testing.T, _ int) (*Job, context.Context) {
			// As in TestCombinerPanicAtBarrierFailsJob: four workers each
			// send vertex 0 one message, so the combiner first runs in the
			// lane merge. One worker would fold them in its Compute.
			g := NewGraph()
			for i := range 4 {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			comp := ComputeFunc(func(c Context, v *Vertex, _ []Value) error {
				if c.Superstep() == 0 {
					c.SendMessage(0, NewLong(1))
				}
				v.VoteToHalt()
				return nil
			})
			boom := CombineFunc(func(VertexID, Value, Value) Value { panic("boom") })
			return NewJob(g, comp, Config{NumWorkers: 4, Combiner: boom}), context.Background()
		}, true},
		{"invalid-config", func(t *testing.T, w int) (*Job, context.Context) {
			return NewJob(pathGraph(t, 200), ccCompute, Config{NumWorkers: w, CheckpointEvery: 1}), context.Background()
		}, true},
		{"checkpoint-restart", func(t *testing.T, w int) (*Job, context.Context) {
			cfg := Config{NumWorkers: w, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(), FailureAt: failOnce(3)}
			return NewJob(pathGraph(t, 200), ccCompute, cfg), context.Background()
		}, false},
	}
	for _, w := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				before := runtime.NumGoroutine()
				job, ctx := tc.job(t, w)
				stats, err := job.RunContext(ctx)
				if (err != nil) != tc.wantErr {
					t.Fatalf("err = %v, want an error: %v", err, tc.wantErr)
				}
				if tc.name == "checkpoint-restart" && stats.Recoveries != 1 {
					t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
				}
				awaitGoroutines(t, before)
			})
		}
	}
	t.Run("shared-pool", func(t *testing.T) {
		before := runtime.NumGoroutine()
		pool := NewWorkerPool(1)
		var wg sync.WaitGroup
		jobs := []*Job{
			NewJob(pathGraph(t, 300), ccCompute, Config{NumWorkers: 4, WorkerPool: pool}),
			NewJob(pathGraph(t, 300), ccCompute, Config{NumWorkers: 4, WorkerPool: pool}),
		}
		errs := make([]error, len(jobs))
		for i, job := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = job.Run()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}
		awaitGoroutines(t, before)
	})
}

// awaitGoroutines fails t unless the goroutine count falls back to
// before within a few seconds: a worker goroutine exits shortly after
// its job returns, not at the same instant.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the job, %d before", n, before)
	}
}
