package pregel

import (
	"sync"
	"testing"
)

// benchPlaneRoundTrip measures the full SendMessage → flush → merge →
// take round trip of one superstep's worth of messages through the
// message plane, with concurrent senders like the real worker phase.
// Run with
//
//	go test ./internal/pregel -run '^$' -bench BenchmarkMessagePlane
//
// With fresh set, every send boxes its own NewLong, as a Compute would;
// without it all sends share one pre-built Value, which only a plane that
// unboxes at the send can take, and which leaves the plane's own
// allocations as the whole count.
//
// Its thin-superstep counterpart, BenchmarkThinSuperstep, is in
// thin_bench_test.go.
func benchPlaneRoundTrip(b *testing.B, combiner Combiner, fresh bool) {
	const (
		workers  = 4
		nVerts   = 1024
		perWorkr = 16384
	)
	g := NewGraph()
	for i := 0; i < nVerts; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	noop := ComputeFunc(func(Context, *Vertex, []Value) error { return nil })
	job := NewJob(g, noop, Config{NumWorkers: workers, Combiner: combiner})
	en := newEngine(job)
	shared := NewLong(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := en.workerCtx(w, nVerts, 0)
				for k := 0; k < perWorkr; k++ {
					// Skewed fan-in: a quarter of the traffic hits one hot
					// vertex, the rest spreads round-robin — the mix where
					// sender-side combining matters.
					to := VertexID((w*perWorkr + k*7) % nVerts)
					if k%4 == 0 {
						to = 0
					}
					msg := shared
					if fresh {
						msg = NewLong(int64(k))
					}
					ctx.SendMessage(to, msg)
				}
				ctx.flushAll()
			}(w)
		}
		wg.Wait()
		// Post-barrier phase exactly as the engine runs it: each shard's
		// owning worker merges its lane column and drains its inboxes in
		// its own goroutine.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				en.next.mergeLane(en.parts[w])
				for slot := range en.parts[w].slots {
					en.next.take(w, slot)
				}
			}(w)
		}
		wg.Wait()
		en.next.reset()
	}
}

func BenchmarkMessagePlane(b *testing.B) {
	b.Run("lanes/combiner", func(b *testing.B) {
		benchPlaneRoundTrip(b, SumLongCombiner, true)
	})
	b.Run("lanes/plain", func(b *testing.B) {
		benchPlaneRoundTrip(b, nil, true)
	})
	// The row path alone, and the boxed combining path it left behind
	// for user combiners.
	b.Run("lanes/scalar", func(b *testing.B) {
		benchPlaneRoundTrip(b, SumLongCombiner, false)
	})
	b.Run("lanes/func", func(b *testing.B) {
		benchPlaneRoundTrip(b, boxed(SumLongCombiner), true)
	})
}

// BenchmarkCheckpointEncode measures the message-store encode path the
// checkpoint writer runs per shard, which now reuses one scratch ID
// slice across shards instead of allocating and sorting a fresh one
// each time.
func BenchmarkCheckpointEncode(b *testing.B) {
	const (
		workers = 4
		nVerts  = 4096
	)
	g := NewGraph()
	for i := 0; i < nVerts; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	noop := ComputeFunc(func(Context, *Vertex, []Value) error { return nil })
	job := NewJob(g, noop, Config{NumWorkers: workers})
	en := newEngine(job)
	for id := 0; id < nVerts; id++ {
		part := en.parts[en.partitionFor(VertexID(id))]
		en.cur.replayDeliver(part, VertexID(id), NewLong(int64(id)))
		en.cur.replayDeliver(part, VertexID(id), NewLong(int64(id)+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var scratch []int
	for i := 0; i < b.N; i++ {
		e := NewEncoder()
		for _, p := range en.parts {
			scratch = en.cur.encode(p, e, scratch)
		}
	}
}
