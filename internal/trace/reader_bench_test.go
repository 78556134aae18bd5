package trace

import (
	"math/rand"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// writeBenchJob writes steps supersteps of perStep captures over four
// lanes into a replicated cluster with the default block and segment
// sizes: the shape of a captured job, at a size a benchmark can set up.
func writeBenchJob(b *testing.B, steps, perStep int) (*dfs.Cluster, *Store) {
	b.Helper()
	c := dfs.NewCluster(4, 2, 0)
	store := NewStore(c, "t")
	const workers = 4
	sink, err := store.NewSink(JobMeta{JobID: "job", NumWorkers: workers})
	if err != nil {
		b.Fatal(err)
	}
	vc := sampleVertexCapture()
	vc.Exception = nil
	for step := 0; step < steps; step++ {
		for id := 0; id < perStep; id++ {
			vc.Superstep, vc.Worker, vc.ID = step, id%workers, pregel.VertexID(id)
			if err := sink.WorkerSink(id % workers).WriteVertexCapture(vc); err != nil {
				b.Fatal(err)
			}
		}
		meta := sampleMeta()
		meta.Superstep = step
		if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
			b.Fatal(err)
		}
		if err := sink.BarrierFlush(step); err != nil {
			b.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: steps}); err != nil {
		b.Fatal(err)
	}
	return c, store
}

// BenchmarkReaderLookup is a cold point lookup over a cluster-backed
// trace: every key is a hit somewhere in ~10 MB of segments, nothing is
// cached, and what the cluster serves for it is reported beside the
// time.
func BenchmarkReaderLookup(b *testing.B) {
	const steps, perStep = 10, 10000
	c, store := writeBenchJob(b, steps, perStep)
	r, err := store.OpenReader("job")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	before := c.Stats().BytesRead
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Capture(rng.Intn(steps), pregel.VertexID(rng.Intn(perStep))) == nil {
			b.Fatal("miss")
		}
	}
	b.StopTimer()
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.Stats().BytesRead-before)/float64(b.N), "cluster-bytes/op")
	b.ReportMetric(float64(r.BytesRead())/float64(b.N), "bytes-read/op")
	b.ReportMetric(float64(r.SegmentReads())/float64(b.N), "segments/op")
}

// BenchmarkReaderOpen loads the index of the same trace (40 parts,
// 100,000 entries) and makes one lookup per superstep, which merges
// the superstep's four lane runs.
func BenchmarkReaderOpen(b *testing.B) {
	const steps, perStep = 10, 10000
	_, store := writeBenchJob(b, steps, perStep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := store.OpenReader("job")
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			if _, ok := r.vertexLoc[s].find(perStep / 2); !ok {
				b.Fatal("miss")
			}
		}
	}
}

// BenchmarkReaderStepView is the GUI's step view over the same trace:
// one superstep's captures and its M/V/E status, on a Reader whose
// segment cache already holds the trace.
func BenchmarkReaderStepView(b *testing.B) {
	const steps, perStep = 10, 10000
	_, store := writeBenchJob(b, steps, perStep)
	r, err := store.OpenReader("job")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % steps
		if len(r.CapturesAt(s)) != perStep {
			b.Fatal("short step view")
		}
		r.StatusAt(s)
	}
	b.StopTimer()
	if err := r.Err(); err != nil {
		b.Fatal(err)
	}
}
