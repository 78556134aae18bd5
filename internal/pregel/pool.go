package pregel

import "context"

// WorkerPool is a global worker budget shared by every engine of a
// session: each partition's superstep scan, the one its coordinator
// runs itself included, holds one slot while it runs, so N concurrent
// jobs with W workers each never run more than the pool's size of
// scans at once. A scan holding a slot always runs to the barrier and
// releases it, so the gate cannot deadlock; it only serializes.
type WorkerPool struct {
	sem chan struct{}
}

// NewWorkerPool creates a pool admitting size concurrent workers.
// A nil pool (or size <= 0) means no global budget.
func NewWorkerPool(size int) *WorkerPool {
	if size <= 0 {
		return nil
	}
	return &WorkerPool{sem: make(chan struct{}, size)}
}

// Size returns the pool's slot count.
func (p *WorkerPool) Size() int { return cap(p.sem) }

// acquire blocks until a slot frees or ctx is canceled, so a canceled
// job never sits in the queue of a saturated pool.
func (p *WorkerPool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *WorkerPool) release() { <-p.sem }
