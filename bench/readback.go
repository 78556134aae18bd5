package main

import (
	"fmt"
	"math/rand"
	"time"

	"graft"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/repro"
)

// readbackPlan is the debugging session replayed against a captured
// trace: uniform (superstep, id) lookups whose working set is far over
// trace.Reader's segment cache, vertex histories, and views of the
// last supersteps, which fit inside it. It is drawn once per child
// from the seed, so every rep asks the same questions.
type readbackPlan struct {
	lookups   []lookupKey
	histories []pregel.VertexID
	steps     []int
}

type lookupKey struct {
	superstep int
	id        pregel.VertexID
}

func newReadbackPlan(seed int64, sz size, vertices int64, supersteps int) readbackPlan {
	rng := rand.New(rand.NewSource(seed))
	var p readbackPlan
	for i := 0; i < sz.lookups; i++ {
		p.lookups = append(p.lookups, lookupKey{rng.Intn(supersteps), pregel.VertexID(rng.Int63n(vertices))})
	}
	for i := 0; i < sz.histories; i++ {
		p.histories = append(p.histories, pregel.VertexID(rng.Int63n(vertices)))
	}
	for s := max(0, supersteps-sz.stepViews); s < supersteps; s++ {
		p.steps = append(p.steps, s)
	}
	return p
}

// readback is what one read-back measured and found.
type readback struct {
	wall, open                                        time.Duration
	lookupTimes, replayTimes, historyTimes, stepTimes []time.Duration
	hits                                              []bool
	// segReadsLookups is Reader.SegmentReads over the lookup phase.
	segReadsLookups int64
	divergences     int
	replayErrs      int
	err             error
}

func (r *readback) numHits() int { return countHits(r.hits) }

func countHits(hits []bool) (n int) {
	for _, h := range hits {
		if h {
			n++
		}
	}
	return n
}

// runReadback opens jobID cold, on a fresh Store handle, and runs the
// plan. Each hit is replayed through comp and compared with what the
// job recorded. Spans go to rec under parent; tfs, when non-nil, is
// the decorator under the store, re-parented so each file read lands
// under the operation that caused it.
func runReadback(fs dfs.FileSystem, tfs *timedFS, jobID string, plan readbackPlan,
	comp pregel.Computation, rec *recorder, parent int) *readback {
	rb := &readback{hits: make([]bool, len(plan.lookups))}
	enter := func(name string) int {
		id := rec.begin(name, parent)
		if tfs != nil {
			tfs.setParent(id)
		}
		return id
	}
	start := time.Now()

	sp := enter("trace.open")
	reader, err := graft.OpenTrace(graft.NewStore(fs, traceRoot), jobID)
	rec.end(sp)
	rb.open = time.Since(start)
	if err != nil {
		rb.err = fmt.Errorf("open trace: %w", err)
		return rb
	}

	segBefore := reader.SegmentReads()
	for i, key := range plan.lookups {
		t := time.Now()
		sp := enter("trace.lookup")
		c := reader.Capture(key.superstep, key.id)
		rec.end(sp)
		rb.lookupTimes = append(rb.lookupTimes, time.Since(t))
		if c == nil {
			continue
		}
		rb.hits[i] = true
		t = time.Now()
		sp = enter("repro.replay")
		out, err := repro.Replay(reader, key.superstep, key.id, comp)
		rec.end(sp)
		rb.replayTimes = append(rb.replayTimes, time.Since(t))
		switch {
		case err != nil || out.Err != nil:
			rb.replayErrs++
		case len(repro.Fidelity(c, out)) > 0:
			rb.divergences++
		}
	}
	rb.segReadsLookups = reader.SegmentReads() - segBefore

	for _, id := range plan.histories {
		t := time.Now()
		sp := enter("trace.history")
		reader.CapturesOf(id)
		rec.end(sp)
		rb.historyTimes = append(rb.historyTimes, time.Since(t))
	}
	for _, s := range plan.steps {
		t := time.Now()
		sp := enter("trace.step_view")
		reader.CapturesAt(s)
		reader.StatusAt(s)
		rec.end(sp)
		rb.stepTimes = append(rb.stepTimes, time.Since(t))
	}
	rb.wall = time.Since(start)
	if tfs != nil {
		tfs.setParent(parent)
	}
	if err := reader.Err(); err != nil {
		rb.err = fmt.Errorf("trace reader: %w", err)
	}
	return rb
}
