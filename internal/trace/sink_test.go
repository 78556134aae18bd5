package trace

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// writeSinkJob writes a small deterministic job through a Sink: three
// supersteps, two workers, vertex IDs 100*(worker+1)+superstep, a
// master capture and a superstep meta per step, with a barrier flush
// after each superstep.
func writeSinkJob(t *testing.T, store *Store, jobID string, opts ...Option) {
	t.Helper()
	sink, err := store.NewSink(JobMeta{
		JobID: jobID, Algorithm: "gc", NumWorkers: 2, NumVertices: 6, NumEdges: 12,
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var captures int64
	for step := 0; step < 3; step++ {
		for w := 0; w < 2; w++ {
			c := sampleVertexCapture()
			c.Superstep, c.Worker = step, w
			c.ID = pregel.VertexID(100*(w+1) + step)
			if err := sink.WorkerSink(w).WriteVertexCapture(c); err != nil {
				t.Fatal(err)
			}
			captures++
		}
		mc := sampleMasterCapture()
		mc.Superstep = step
		if err := sink.MasterSink().WriteMasterCapture(mc); err != nil {
			t.Fatal(err)
		}
		meta := sampleMeta()
		meta.Superstep = step
		if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
			t.Fatal(err)
		}
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: 3, Reason: "max supersteps", Captures: captures}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sink.DroppedRecords(); n != 0 {
		t.Fatalf("dropped %d records under Block policy", n)
	}
}

func TestSinkSegmentedRoundTrip(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "job1")

	// The on-disk layout is segments plus one index part per lane per
	// barrier, each in its lane's directory, no whole-file .trace and no
	// whole-lane sidecar.
	names, err := fs.List("t/job1/")
	if err != nil {
		t.Fatal(err)
	}
	var segs, idxs int
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".seg"):
			segs++
		case strings.HasSuffix(n, ".idx"):
			idxs++
			if !strings.Contains(strings.TrimPrefix(n, "t/job1/"), "/idx_") {
				t.Errorf("index file %q is not a part in a lane directory", n)
			}
		case strings.HasSuffix(n, ".trace"):
			t.Errorf("whole-file trace %q in a segmented job", n)
		}
	}
	if segs != 9 || idxs != 9 {
		t.Fatalf("layout: %d segments, %d index parts (want 9 and 9: 3 lanes x 3 barriers), files=%v", segs, idxs, names)
	}

	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.IndexParts(); got != idxs {
		t.Errorf("IndexParts() = %d, %d index files on disk", got, idxs)
	}
	if got := r.JobMeta(); got.Format != FormatSegments || got.Algorithm != "gc" {
		t.Errorf("meta = %+v", got)
	}
	if res := r.JobResult(); res == nil || res.Captures != 6 {
		t.Errorf("result = %+v", res)
	}
	if got := r.Supersteps(); len(got) != 3 {
		t.Errorf("supersteps = %v", got)
	}
	if n := r.TotalCaptures(); n != 6 {
		t.Errorf("total captures = %d", n)
	}
	c := r.Capture(1, 201)
	if c == nil || c.Worker != 1 || c.Superstep != 1 {
		t.Fatalf("capture(1, 201) = %+v", c)
	}
	want := sampleVertexCapture()
	if !pregel.ValuesEqual(c.ValueAfter, want.ValueAfter) || c.Reasons != want.Reasons {
		t.Errorf("capture fields lost in round trip: %+v", c)
	}
	if mc := r.MasterAt(2); mc == nil || mc.NumVertices != 1_000_000_000 {
		t.Errorf("master at 2 = %+v", mc)
	}
	if m := r.MetaAt(0); m == nil || m.NumVertices != 10 {
		t.Errorf("meta at 0 = %+v", m)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkSingleLookupSegmentReads pins the lazy-read acceptance
// claim: a cold single-vertex lookup fetches at most one segment.
func TestSinkSingleLookupSegmentReads(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	// A small segment size forces several segments per lane, so the
	// check is not vacuous.
	writeSinkJob(t, store, "job1", WithSegmentSize(64))
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if c := r.Capture(2, 102); c == nil {
		t.Fatal("capture(2, 102) missing")
	}
	if n := r.SegmentReads(); n > 1 {
		t.Errorf("single lookup read %d segments, want at most 1", n)
	}
}

// withBatchSize shrinks a lane's batch (the constant laneBatchSize
// outside tests) so a handful of records exercises partial batches.
func withBatchSize(n int) Option {
	return func(o *sinkOptions) { o.batchSize = n }
}

// TestSinkSyncAsyncEquivalence writes the same record stream through
// the synchronous path and the async pipeline and demands the two
// traces be indistinguishable to a reader.
func TestSinkSyncAsyncEquivalence(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	writeSinkJob(t, store, "sync", WithSynchronous(), WithSegmentSize(64))
	// Batch size 3 exercises partial-batch pushes at barriers; segment
	// size 64 exercises mid-stream seals on the drainer.
	writeSinkJob(t, store, "async", withBatchSize(3), WithSegmentSize(64))

	a, err := store.OpenReader("sync")
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.OpenReader("async")
	if err != nil {
		t.Fatal(err)
	}
	diff := DiffJobs(a, b)
	if len(diff.OnlyA) != 0 || len(diff.OnlyB) != 0 {
		t.Errorf("capture sets differ: onlySync=%v onlyAsync=%v", diff.OnlyA, diff.OnlyB)
	}
	if d := diff.FirstDivergence(); d != nil {
		t.Errorf("first divergence at superstep %d vertex %d: %v", d.Superstep, d.ID, d.Fields)
	}
	if len(diff.StatusDiffs) != 0 {
		t.Errorf("status differs at supersteps %v", diff.StatusDiffs)
	}
}

// TestSinkBatchSizeOne pins the edge case where every record is its
// own batch message.
func TestSinkBatchSizeOne(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	writeSinkJob(t, store, "job1", withBatchSize(1), WithQueueCapacity(1))
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.TotalCaptures(); n != 6 {
		t.Errorf("total captures = %d", n)
	}
}

// gateFS wraps a FileSystem and blocks every segment-file Create until
// the gate opens, simulating a wedged remote store. Index and manifest
// writes pass through so only the drainer's seal path hangs.
type gateFS struct {
	dfs.FileSystem
	gate chan struct{}
}

func (g *gateFS) Create(path string) (io.WriteCloser, error) {
	if strings.HasSuffix(path, ".seg") {
		<-g.gate
	}
	return g.FileSystem.Create(path)
}

// TestSinkDropPolicyNeverBlocks is the chaos check for the Drop
// policy: with the store wedged solid, a producer keeps submitting and
// must never stall — overflow is counted, not waited out, and the
// backpressure drops do not poison Err, which is reserved for
// structural write failures.
func TestSinkDropPolicyNeverBlocks(t *testing.T) {
	gate := &gateFS{FileSystem: dfs.NewMemFS(), gate: make(chan struct{})}
	store := NewStore(gate, "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1},
		WithBackpressure(Drop),
		withBatchSize(1),
		WithQueueCapacity(1),
		// One record overflows the segment, so the very first batch
		// wedges the drainer in Create.
		WithSegmentSize(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	const writes = 1000
	done := make(chan error, 1)
	go func() {
		w := sink.WorkerSink(0)
		for i := 0; i < writes; i++ {
			c := sampleVertexCapture()
			c.ID = pregel.VertexID(i)
			if err := w.WriteVertexCapture(c); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer blocked under Drop policy with a wedged store")
	}
	if n := sink.DroppedRecords(); n == 0 {
		t.Error("wedged store dropped nothing")
	} else if n >= writes {
		t.Errorf("all %d records dropped; queue accepted none", writes)
	}
	if err := sink.Err(); err != nil {
		t.Errorf("backpressure drops set Err: %v", err)
	}
	close(gate.gate) // unwedge so shutdown can seal what was accepted
	if err := sink.CloseFiles(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	// What the queue accepted survived the wedge.
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.TotalCaptures(), int64(writes)-sink.DroppedRecords(); got != want {
		t.Errorf("read back %d captures, want %d (=%d written - %d dropped)",
			got, want, writes, sink.DroppedRecords())
	}
}

// failFS fails every segment-file Create: the structural-failure path,
// as opposed to backpressure.
type failFS struct {
	dfs.FileSystem
}

var errDiskGone = errors.New("disk gone")

func (f *failFS) Create(path string) (io.WriteCloser, error) {
	if strings.HasSuffix(path, ".seg") {
		return nil, errDiskGone
	}
	return f.FileSystem.Create(path)
}

// TestSinkWriteErrorVsDropAccounting pins the distinction between the
// two loss ledgers: a structural write failure surfaces in Err (and
// counts the segment's records as lost), while Drop-policy overflow
// only ever increments DroppedRecords. A reader of the stats must be
// able to tell "storage broke" from "storage was slow".
func TestSinkWriteErrorVsDropAccounting(t *testing.T) {
	store := NewStore(&failFS{dfs.NewMemFS()}, "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1}, WithSynchronous(), WithSegmentSize(1))
	if err != nil {
		t.Fatal(err)
	}
	werr := sink.WorkerSink(0).WriteVertexCapture(sampleVertexCapture())
	if werr == nil {
		t.Fatal("write into a failing store succeeded")
	}
	if err := sink.Err(); !errors.Is(err, errDiskGone) {
		t.Errorf("Err() = %v, want the storage failure", err)
	}
	if n := sink.DroppedRecords(); n != 1 {
		t.Errorf("lost-record count = %d, want 1", n)
	}
}

// TestSinkBarrierFlushRace hammers one worker sink from its producer
// goroutine while the coordinator runs barrier flushes and stats
// queries, the way the engine drives a live sink. Run under -race this
// pins the locking around the shared lane batch.
func TestSinkBarrierFlushRace(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1},
		withBatchSize(4), WithQueueCapacity(32), WithSegmentSize(256))
	if err != nil {
		t.Fatal(err)
	}
	const writes = 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := sink.WorkerSink(0)
		for i := 0; i < writes; i++ {
			c := sampleVertexCapture()
			c.Superstep, c.ID = i/40, pregel.VertexID(i)
			if err := w.WriteVertexCapture(c); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for step := 0; step < 10; step++ {
		if err := sink.BarrierFlush(step); err != nil {
			t.Error(err)
		}
		sink.QueueDepth()
		sink.DroppedRecords()
	}
	wg.Wait()
	if err := sink.Finish(JobResult{Supersteps: 10, Captures: writes}); err != nil {
		t.Fatal(err)
	}
	r, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if n := r.TotalCaptures(); n != writes {
		t.Errorf("read back %d captures, want %d", n, writes)
	}
}

// TestSinkUnindexedSegmentRecovery kills the index parts the way a
// crash between a seal and the next barrier would, and expects the
// reader to scan the orphaned segments back into view.
func TestSinkUnindexedSegmentRecovery(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "job1", WithSegmentSize(64))

	before, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	wantCaptures := before.TotalCaptures()

	names, err := fs.List("t/job1/")
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".idx") {
			if err := fs.Remove(n); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no index parts to remove")
	}

	after, err := store.OpenReader("job1")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalCaptures(); got != wantCaptures {
		t.Errorf("recovered %d captures from unindexed segments, want %d", got, wantCaptures)
	}
	if c := after.Capture(1, 201); c == nil || c.Worker != 1 {
		t.Errorf("capture(1, 201) after index loss = %+v", c)
	}
}

// TestSinkValidation pins the constructor checks.
func TestSinkValidation(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	if _, err := store.NewSink(JobMeta{JobID: "", NumWorkers: 1}); err == nil {
		t.Error("empty job ID accepted")
	}
	if _, err := store.NewSink(JobMeta{JobID: "x", NumWorkers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
}

// TestNewSinkRejectsNegativeOptions pins the typed validation: an
// explicitly negative capacity fails the sink instead of being
// silently coerced to the default.
func TestNewSinkRejectsNegativeOptions(t *testing.T) {
	store := NewStore(dfs.NewMemFS(), "t")
	meta := JobMeta{JobID: "neg", Algorithm: "gc", NumWorkers: 1}
	for name, opt := range map[string]Option{
		"segment size":   WithSegmentSize(-1),
		"queue capacity": WithQueueCapacity(-8),
	} {
		if _, err := store.NewSink(meta, opt); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", name, err)
		}
	}
	// Zero still means "default".
	sink, err := store.NewSink(meta, WithSegmentSize(0), WithQueueCapacity(0))
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	_ = sink.CloseFiles()
}

// foldIndexParts rewrites a job's index in the layout written before
// parts: each lane's parts folded into the one <lane>.idx sidecar an
// older writer's last barrier would have left.
func foldIndexParts(t *testing.T, fs dfs.FileSystem, jobDir string) {
	t.Helper()
	names, err := fs.List(jobDir)
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[string][]segio.SegmentIndex{}
	for _, n := range names {
		if !strings.HasSuffix(n, ".idx") {
			continue
		}
		raw, err := dfs.ReadFile(fs, n)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := segio.DecodeIndex(raw)
		if err != nil {
			t.Fatal(err)
		}
		lane := n[:strings.LastIndex(n, "/")]
		lanes[lane] = append(lanes[lane], segs...)
		if err := fs.Remove(n); err != nil {
			t.Fatal(err)
		}
	}
	for lane, segs := range lanes {
		if err := dfs.WriteFile(fs, lane+".idx", segio.EncodeIndex(segs)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReaderOldAndNewIndexLayouts opens the same job in the layout
// written before index parts — one <lane>.idx naming all of a lane's
// segments — and in the part layout, and expects one view.
func TestReaderOldAndNewIndexLayouts(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	writeSinkJob(t, store, "new", WithSegmentSize(64))
	writeSinkJob(t, store, "old", WithSegmentSize(64))

	foldIndexParts(t, fs, "t/old/")

	oldR, err := store.OpenReader("old")
	if err != nil {
		t.Fatal(err)
	}
	newR, err := store.OpenReader("new")
	if err != nil {
		t.Fatal(err)
	}
	if oldR.IndexParts() != 3 || newR.IndexParts() != 9 {
		t.Fatalf("index files: old layout %d (want 3), new layout %d (want 9)", oldR.IndexParts(), newR.IndexParts())
	}
	if oldR.SegmentReads() != 0 || newR.SegmentReads() != 0 {
		t.Errorf("a fully indexed trace was scanned on open: %d and %d segment reads", oldR.SegmentReads(), newR.SegmentReads())
	}
	if a, b := Digest(oldR), Digest(newR); a != b {
		t.Errorf("digest differs between layouts: old %s, new %s", a, b)
	}
	if oldR.TotalCaptures() != 6 || !reflect.DeepEqual(oldR.segOrder, newR.segOrder) {
		t.Errorf("old layout: %d captures, segment order %v vs %v", oldR.TotalCaptures(), oldR.segOrder, newR.segOrder)
	}
	if err := oldR.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkFailedIndexPartWrite fails exactly one Create of an index
// part. The segment it would have named is already committed, so a
// reader opening before the next barrier finds its records by scanning
// it, and the next barrier's part names it: nothing is lost, nothing is
// indexed twice, nothing is counted as dropped.
func TestSinkFailedIndexPartWrite(t *testing.T) {
	for _, mode := range []string{"async", "synchronous"} {
		t.Run(mode, func(t *testing.T) {
			mem := dfs.NewMemFS()
			// One lane ever writes (the master lane gets no records), so
			// the Creates are job.meta, seg_000000, idx_000000, ...: the
			// third is the first part.
			ffs := faults.NewFaultFS(mem, faults.Plan{FailNth: map[faults.Op]int{faults.OpCreate: 3}})
			store := NewStore(ffs, "t")
			var opts []Option
			if mode == "synchronous" {
				opts = append(opts, WithSynchronous())
			}
			sink, err := store.NewSink(JobMeta{JobID: "job1", NumWorkers: 1}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			write := func(step, n int) {
				for i := 0; i < n; i++ {
					c := sampleVertexCapture()
					c.Superstep, c.Worker, c.ID = step, 0, pregel.VertexID(i)
					if err := sink.WorkerSink(0).WriteVertexCapture(c); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(0, 5)
			if err := sink.BarrierFlush(0); !errors.Is(err, faults.ErrInjected) || !strings.Contains(err.Error(), ".idx") {
				t.Fatalf("first barrier: err = %v, want the injected fault on the .idx Create", err)
			}

			between, err := NewStore(mem, "t").OpenReader("job1")
			if err != nil {
				t.Fatal(err)
			}
			if between.IndexParts() != 0 || between.TotalCaptures() != 5 || between.SegmentReads() != 1 {
				t.Errorf("reader between the barriers: %d parts, %d captures, %d segments scanned; want 0, 5, 1",
					between.IndexParts(), between.TotalCaptures(), between.SegmentReads())
			}

			write(1, 4)
			if err := sink.BarrierFlush(1); err != nil {
				t.Fatalf("second barrier: %v", err)
			}
			if err := sink.Finish(JobResult{Supersteps: 2, Captures: 9}); err != nil {
				t.Fatal(err)
			}
			if n := sink.DroppedRecords(); n != 0 {
				t.Errorf("DroppedRecords = %d, want 0: the records are on disk", n)
			}
			if ffs.FaultStats().Injected != 1 {
				t.Errorf("%d faults injected, want exactly 1", ffs.FaultStats().Injected)
			}

			// Exactly one part, naming both segments, every record once.
			raw, err := dfs.ReadFile(mem, "t/job1/worker_00/idx_000000.idx")
			if err != nil {
				t.Fatal(err)
			}
			segs, err := segio.DecodeIndex(raw)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[[2]int64]bool{}
			for _, seg := range segs {
				for _, ent := range seg.Entries {
					key := [2]int64{int64(ent.Step), ent.ID}
					if seen[key] {
						t.Errorf("record %v indexed twice", key)
					}
					seen[key] = true
				}
			}
			if len(segs) != 2 || len(seen) != 9 {
				t.Errorf("part names %d segments and %d records, want 2 and 9", len(segs), len(seen))
			}
			after, err := NewStore(mem, "t").OpenReader("job1")
			if err != nil {
				t.Fatal(err)
			}
			if after.IndexParts() != 1 || after.TotalCaptures() != 9 || after.SegmentReads() != 0 {
				t.Errorf("reader after the job: %d parts, %d captures, %d segments scanned; want 1, 9, 0",
					after.IndexParts(), after.TotalCaptures(), after.SegmentReads())
			}
		})
	}
}

// TestReaderVerify damages a trace the two ways an index and its
// segments can come to disagree — one offset in one index file, one
// frame in one segment — and requires Verify to refuse each and to pass
// the trace before the damage and after its repair, in the part layout
// and in the older whole-sidecar one.
func TestReaderVerify(t *testing.T) {
	for _, layout := range []string{"parts", "sidecar"} {
		t.Run(layout, func(t *testing.T) {
			fs := dfs.NewMemFS()
			store := NewStore(fs, "t")
			writeSinkJob(t, store, "job1", WithSegmentSize(64))
			if layout == "sidecar" {
				foldIndexParts(t, fs, "t/job1/")
			}
			verify := func() error {
				r, err := store.OpenReader("job1")
				if err != nil {
					return err
				}
				return r.Verify()
			}
			if err := verify(); err != nil {
				t.Fatalf("untouched trace: %v", err)
			}

			names, err := fs.List("t/job1/")
			if err != nil {
				t.Fatal(err)
			}
			var idxPath string
			for _, n := range names {
				if strings.HasSuffix(n, ".idx") && strings.Contains(n, "worker_01") {
					idxPath = n
					break
				}
			}
			idxRaw, err := dfs.ReadFile(fs, idxPath)
			if err != nil {
				t.Fatal(err)
			}
			segs, err := segio.DecodeIndex(idxRaw)
			if err != nil {
				t.Fatal(err)
			}
			good := segs[0].Entries[0]
			segs[0].Entries[0].Offset++
			if err := dfs.WriteFile(fs, idxPath, segio.EncodeIndex(segs)); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err == nil {
				t.Errorf("Verify passed with %s locating a record one byte off", idxPath)
			}
			if err := dfs.WriteFile(fs, idxPath, idxRaw); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err != nil {
				t.Fatalf("index restored: %v", err)
			}

			// The first byte of a payload is the record's kind.
			segPath := "t/job1/" + segs[0].Name
			segRaw, err := dfs.ReadFile(fs, segPath)
			if err != nil {
				t.Fatal(err)
			}
			bad := append([]byte(nil), segRaw...)
			bad[good.Offset] = 0x7f
			if err := dfs.WriteFile(fs, segPath, bad); err != nil {
				t.Fatal(err)
			}
			if err := verify(); err == nil {
				t.Errorf("Verify passed with a damaged frame in %s", segPath)
			}
		})
	}
}
