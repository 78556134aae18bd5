package pregel

import (
	"context"
	"time"
)

// MsgFlushBatch exports msgFlushBatch to the external test package.
const MsgFlushBatch = msgFlushBatch

// RunWithFlushBatch runs j like Job.Run, with lane batches of `batch`
// entries instead of msgFlushBatch.
func RunWithFlushBatch(j *Job, batch int) (*Stats, error) {
	en := newEngine(j)
	en.ctx = context.Background()
	en.flushBatch = batch
	return en.run(time.Now())
}

// RunCountingPendingCompactions runs j like Job.Run and also returns
// how many times a barrier compacted a partition (rebuild, then remap
// of the lanes into it) while the next superstep's mail for it was
// pending, which the next checkpoint's inbox encode then writes. It
// watches from a listener, so j's Config must not set one.
func RunCountingPendingCompactions(j *Job) (*Stats, int, error) {
	en := newEngine(j)
	en.ctx = context.Background()
	probe := &compactionProbe{en: en, lens: make([]int, len(en.parts))}
	en.cfg.Listener = probe
	stats, err := en.run(time.Now())
	return stats, probe.n, err
}

// compactionProbe compares each partition's slot count across barriers:
// a partition with no tombstones and fewer slots than before was
// rebuilt at the barrier just finished.
type compactionProbe struct {
	en   *engine
	lens []int
	n    int
}

func (c *compactionProbe) JobStarted(JobInfo)                  { c.record() }
func (c *compactionProbe) SuperstepStarted(int, SuperstepInfo) {}
func (c *compactionProbe) JobFinished(*Stats, error)           {}

func (c *compactionProbe) SuperstepFinished(int, SuperstepStats) {
	for i, p := range c.en.parts {
		if p.removed == 0 && len(p.slots) < c.lens[i] && c.en.next.hasPending(i) {
			c.n++
		}
	}
	c.record()
}

func (c *compactionProbe) record() {
	for i, p := range c.en.parts {
		c.lens[i] = len(p.slots)
	}
}

// RunCountingCurrentColumns runs j like Job.Run and also returns how
// many partitions ended it with a current edge slot column: those whose
// share of Stats.EdgeCut was read from the column.
func RunCountingCurrentColumns(j *Job) (*Stats, int, error) {
	en := newEngine(j)
	en.ctx = context.Background()
	stats, err := en.run(time.Now())
	n := 0
	for _, p := range en.parts {
		if current, _ := en.columnCurrent(p); current {
			n++
		}
	}
	return stats, n, err
}

// Placement returns the worker a job over g with the given partitioner
// and worker count places each vertex ID on.
func Placement(g *Graph, mode PartitionerMode, workers int) func(VertexID) int {
	var assign *idTable
	if mode == PartitionLocality {
		vs, idx := g.ordered()
		assign = localityPlacement(vs, idx, workers)
	}
	return func(id VertexID) int {
		if assign != nil {
			if p, ok := assign.lookup(id); ok {
				return p
			}
		}
		return hashPartition(id, workers)
	}
}
