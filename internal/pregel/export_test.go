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
