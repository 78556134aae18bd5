package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// refLoc and refIndex are the index the Reader kept before the sorted
// per-superstep slices: one map from ID to location per superstep, a
// later entry overwriting an earlier one, filled by the same walk —
// every index file in name order, then the segments none of them names.
// Records are read the old way too: the whole segment, then a slice.
type refLoc struct {
	seg     string
	off, ln int
}

type refIndex struct {
	fs               dfs.FileSystem
	dir              string
	meta, master     map[int]refLoc
	vertex, subgraph map[int]map[pregel.VertexID]refLoc
}

func loadRefIndex(t *testing.T, store *Store, jobID string) *refIndex {
	t.Helper()
	x := &refIndex{
		fs: store.FS, dir: store.jobDir(jobID),
		meta: map[int]refLoc{}, master: map[int]refLoc{},
		vertex: map[int]map[pregel.VertexID]refLoc{}, subgraph: map[int]map[pregel.VertexID]refLoc{},
	}
	files, err := store.FS.List(x.dir + "/")
	if err != nil {
		t.Fatal(err)
	}
	var idxFiles, segFiles []string
	for _, name := range files {
		switch {
		case strings.HasSuffix(name, ".idx"):
			idxFiles = append(idxFiles, name)
		case strings.HasSuffix(name, ".seg"):
			segFiles = append(segFiles, strings.TrimPrefix(name, x.dir+"/"))
		}
	}
	sort.Strings(idxFiles)
	sort.Strings(segFiles)
	indexed := map[string]bool{}
	for _, p := range idxFiles {
		raw, err := dfs.ReadFile(store.FS, p)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := segio.DecodeIndex(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			indexed[seg.Name] = true
			for _, ent := range seg.Entries {
				x.place(ent, seg.Name)
			}
		}
	}
	for _, name := range segFiles {
		if indexed[name] {
			continue
		}
		raw, err := dfs.ReadFile(store.FS, x.dir+"/"+name)
		if err != nil {
			t.Fatal(err)
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			x.place(ent, name)
		}
	}
	return x
}

func (x *refIndex) place(ent segio.Entry, seg string) {
	loc := refLoc{seg: seg, off: ent.Offset, ln: ent.Length}
	byID := func(m map[int]map[pregel.VertexID]refLoc) {
		if m[ent.Step] == nil {
			m[ent.Step] = map[pregel.VertexID]refLoc{}
		}
		m[ent.Step][pregel.VertexID(ent.ID)] = loc
	}
	switch recordKind(ent.Kind) {
	case kindSuperstepMeta:
		x.meta[ent.Step] = loc
	case kindMasterCapture:
		x.master[ent.Step] = loc
	case kindVertexCapture:
		byID(x.vertex)
	case kindSubgraphCapture:
		byID(x.subgraph)
	}
}

func (x *refIndex) record(t *testing.T, loc refLoc) any {
	t.Helper()
	raw, err := dfs.ReadFile(x.fs, x.dir+"/"+loc.seg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecordPayload(raw[loc.off : loc.off+loc.ln])
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// writeRandomJob writes a job whose record stream has what a recovered
// job's has: supersteps executed more than once, the same (superstep,
// id) captured again in a later segment, a later part and another
// worker's lane, with barrier flushes falling anywhere. Every record
// carries a sequence number so two records of one key differ. With
// ordered set, one worker captures ascending IDs once each: the stream
// the lazy sort skips.
func writeRandomJob(t *testing.T, store *Store, jobID string, rng *rand.Rand, ordered bool) (steps int, ids int) {
	t.Helper()
	workers := 1 + rng.Intn(3)
	if ordered {
		workers = 1
	}
	segSize, batchSize := 64+rng.Intn(600), laneBatchSize
	if rng.Intn(2) == 0 {
		batchSize = 1
	}
	sink, err := store.newSink(JobMeta{JobID: jobID, Algorithm: "gc", NumWorkers: workers}, segSize, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	return writeRandomStream(t, sink, rng, workers, ordered)
}

// writeRandomStream is writeRandomJob's record stream into a sink of
// workers worker lanes, ending with Finish.
func writeRandomStream(t *testing.T, sink Sink, rng *rand.Rand, workers int, ordered bool) (steps int, ids int) {
	t.Helper()
	steps, ids = 1+rng.Intn(5), 4+rng.Intn(20)
	seq := int64(0)
	for step := 0; step < steps; step++ {
		rounds := 1 + rng.Intn(3)
		if ordered {
			rounds = 1
		}
		for round := 0; round < rounds; round++ {
			for w := 0; w < workers; w++ {
				next := 0
				for i, n := 0, rng.Intn(2*ids); i < n; i++ {
					id := rng.Intn(ids)
					if ordered {
						if id = next + rng.Intn(3); id >= ids {
							break
						}
						next = id + 1
					}
					seq++
					c := sampleVertexCapture()
					c.Superstep, c.Worker, c.ID, c.ValueAfter = step, w, pregel.VertexID(id), pregel.NewLong(seq)
					if rng.Intn(4) == 0 {
						c.Violations, c.Exception = nil, nil
					}
					if err := sink.WorkerSink(w).WriteVertexCapture(c); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(5) == 0 {
						seq++
						sc := sampleSubgraphCapture()
						sc.Superstep, sc.Worker, sc.ID, sc.Iterations = step, w, pregel.VertexID(rng.Intn(ids)), seq
						if err := sink.WorkerSink(w).WriteSubgraphCapture(sc); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			seq++
			meta := sampleMeta()
			meta.Superstep, meta.NumVertices = step, seq
			if err := sink.MasterSink().WriteSuperstepMeta(meta); err != nil {
				t.Fatal(err)
			}
			mc := sampleMasterCapture()
			mc.Superstep, mc.NumVertices = step, seq
			if err := sink.MasterSink().WriteMasterCapture(mc); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := sink.BarrierFlush(step); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: steps}); err != nil {
		t.Fatal(err)
	}
	return steps, ids
}

// TestReaderMatchesMapIndex: over randomized streams with duplicate
// keys across segments, parts and lanes — in the part layout, the
// folded whole-sidecar layout, and with index parts missing so their
// segments are found by the scan — every view of the Reader returns
// what the map-of-maps index returned, record for record.
func TestReaderMatchesMapIndex(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := dfs.NewMemFS()
		store := NewStore(fs, "t")
		ordered := seed%5 == 0
		steps, ids := writeRandomJob(t, store, "job", rng, ordered)
		layout := []string{"parts", "sidecar", "unindexed"}[seed%3]
		switch layout {
		case "sidecar":
			foldIndexParts(t, fs, "t/job/")
		case "unindexed":
			names, _ := fs.List("t/job/")
			for _, n := range names {
				if strings.HasSuffix(n, ".idx") && rng.Intn(3) == 0 {
					if err := fs.Remove(n); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		name := fmt.Sprintf("seed %d (%s)", seed, layout)
		ref := loadRefIndex(t, store, "job")
		r, err := store.OpenReader("job")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ordered {
			for s, x := range r.vertexLoc {
				if !x.inOrder {
					t.Errorf("%s: superstep %d of an ascending stream was not recognised as in order", name, s)
				}
			}
		}

		var total int64
		allIDs := map[pregel.VertexID]bool{}
		for step := -1; step <= steps; step++ {
			var wantAt []*VertexCapture
			for id := pregel.VertexID(-1); id <= pregel.VertexID(ids); id++ {
				var want *VertexCapture
				if loc, ok := ref.vertex[step][id]; ok {
					want = ref.record(t, loc).(*VertexCapture)
					wantAt = append(wantAt, want)
					allIDs[id] = true
					total++
				}
				if got := r.Capture(step, id); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Capture(%d, %d) = %+v, want %+v", name, step, id, got, want)
				}
				var wantSub *SubgraphCapture
				if loc, ok := ref.subgraph[step][id]; ok {
					wantSub = ref.record(t, loc).(*SubgraphCapture)
				} else {
					var all []*SubgraphCapture
					for sid := pregel.VertexID(0); sid < pregel.VertexID(ids); sid++ {
						if loc, ok := ref.subgraph[step][sid]; ok {
							all = append(all, ref.record(t, loc).(*SubgraphCapture))
						}
					}
					wantSub = findMemberSubgraph(all, id)
				}
				if got := r.SubgraphAt(step, id); !reflect.DeepEqual(got, wantSub) {
					t.Fatalf("%s: SubgraphAt(%d, %d) = %+v, want %+v", name, step, id, got, wantSub)
				}
			}
			if got := r.CapturesAt(step); len(got) != len(wantAt) || (len(got) > 0 && !reflect.DeepEqual(got, wantAt)) {
				t.Fatalf("%s: CapturesAt(%d) returned %d captures, want %d in ID order", name, step, len(got), len(wantAt))
			}
			if got, want := r.StatusAt(step), StatusOf(wantAt); got != want {
				t.Fatalf("%s: StatusAt(%d) = %+v, want %+v", name, step, got, want)
			}
			var wantMeta *SuperstepMeta
			if loc, ok := ref.meta[step]; ok {
				wantMeta = ref.record(t, loc).(*SuperstepMeta)
			}
			if got := r.MetaAt(step); !reflect.DeepEqual(got, wantMeta) {
				t.Fatalf("%s: MetaAt(%d) = %+v, want %+v", name, step, got, wantMeta)
			}
			var wantMaster *MasterCapture
			if loc, ok := ref.master[step]; ok {
				wantMaster = ref.record(t, loc).(*MasterCapture)
			}
			if got := r.MasterAt(step); !reflect.DeepEqual(got, wantMaster) {
				t.Fatalf("%s: MasterAt(%d) = %+v, want %+v", name, step, got, wantMaster)
			}
		}
		for id := pregel.VertexID(-1); id <= pregel.VertexID(ids); id++ {
			var want []*VertexCapture
			for step := 0; step < steps; step++ {
				if loc, ok := ref.vertex[step][id]; ok {
					want = append(want, ref.record(t, loc).(*VertexCapture))
				}
			}
			if got := r.CapturesOf(id); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: CapturesOf(%d) returned %d captures, want %d in superstep order", name, id, len(got), len(want))
			}
		}
		var wantIDs []pregel.VertexID
		for id := range allIDs {
			wantIDs = append(wantIDs, id)
		}
		sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
		if got := r.CapturedVertexIDs(); len(got) != len(wantIDs) || (len(got) > 0 && !reflect.DeepEqual(got, wantIDs)) {
			t.Fatalf("%s: CapturedVertexIDs = %v, want %v", name, got, wantIDs)
		}
		if got := r.TotalCaptures(); got != total {
			t.Fatalf("%s: TotalCaptures = %d, want %d", name, got, total)
		}

		want := map[recordKey]refLoc{}
		for s, loc := range ref.meta {
			want[recordKey{kind: kindSuperstepMeta, step: s}] = loc
		}
		for s, loc := range ref.master {
			want[recordKey{kind: kindMasterCapture, step: s}] = loc
		}
		for s, m := range ref.vertex {
			for id, loc := range m {
				want[recordKey{kindVertexCapture, s, id}] = loc
			}
		}
		for s, m := range ref.subgraph {
			for id, loc := range m {
				want[recordKey{kindSubgraphCapture, s, id}] = loc
			}
		}
		got := map[recordKey]refLoc{}
		r.eachLoc(func(k recordKey, loc recordLoc) {
			if _, dup := got[k]; dup {
				t.Fatalf("%s: eachLoc visited %+v twice", name, k)
			}
			got[k] = refLoc{r.segOrder[loc.seg], int(loc.off), int(loc.ln)}
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: eachLoc names %d records, the map index %d, or at other locations", name, len(got), len(want))
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("%s: Verify: %v", name, err)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// streamOnly hides everything of a handle but Read and Close, as a
// decorator that wraps handles does, so dfs.ReadRange must stream.
type streamOnly struct{ dfs.FileSystem }

func (s streamOnly) Open(path string) (io.ReadCloser, error) {
	r, err := s.FileSystem.Open(path)
	if err != nil {
		return nil, err
	}
	return struct{ io.ReadCloser }{r}, nil
}

// TestReaderHostileIndexEntry points one index entry outside its
// segment in each way an entry can be wrong. A point read and a scan
// must both return nothing for that record, set Err, not panic and not
// allocate what the entry claims — over handles with ReadAt and over
// handles that only stream. The other records stay readable.
func TestReaderHostileIndexEntry(t *testing.T) {
	for name, mutate := range map[string]func(e *segio.Entry, segLen int){
		"offset past the end": func(e *segio.Entry, segLen int) { e.Offset = segLen + 5 },
		"length past the end": func(e *segio.Entry, segLen int) { e.Length = segLen },
		// The largest values segio.DecodeIndex lets through.
		"absurd length": func(e *segio.Entry, _ int) { e.Length = math.MaxInt32 },
		"absurd offset": func(e *segio.Entry, _ int) { e.Offset = math.MaxInt32 },
		"both absurd":   func(e *segio.Entry, _ int) { e.Offset, e.Length = math.MaxInt32, math.MaxInt32 },
	} {
		for _, streamed := range []bool{false, true} {
			mem := dfs.NewMemFS()
			store := NewStore(mem, "t")
			writeSinkJob(t, store, "job1", 64, laneBatchSize)
			// Worker 1's first part holds vertex 200 at superstep 0.
			idxPath := "t/job1/worker_01/idx_000000.idx"
			raw, err := dfs.ReadFile(mem, idxPath)
			if err != nil {
				t.Fatal(err)
			}
			segs, err := segio.DecodeIndex(raw)
			if err != nil {
				t.Fatal(err)
			}
			ent := &segs[0].Entries[0]
			if ent.Step != 0 || ent.ID != 200 {
				t.Fatalf("fixture moved: first entry of %s is (%d, %d)", idxPath, ent.Step, ent.ID)
			}
			mutate(ent, int(mem.Size("t/job1/"+segs[0].Name)))
			if err := dfs.WriteFile(mem, idxPath, segio.EncodeIndex(segs)); err != nil {
				t.Fatal(err)
			}
			if streamed {
				store = NewStore(streamOnly{mem}, "t")
			}
			for _, view := range []string{"point", "scan"} {
				label := fmt.Sprintf("%s/%s/streamed=%v", name, view, streamed)
				r, err := store.OpenReader("job1")
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if view == "point" {
					if c := r.Capture(0, 200); c != nil {
						t.Errorf("%s: Capture returned %+v through a hostile entry", label, c)
					}
				} else if caps := r.CapturesAt(0); len(caps) != 1 || caps[0].ID != 100 {
					t.Errorf("%s: CapturesAt(0) returned %d captures, want only vertex 100", label, len(caps))
				}
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("%s: allocated %d bytes", label, grew)
				}
				if err := r.Err(); err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%s: Err = %v, want the out-of-range entry reported", label, err)
				}
				if c := r.Capture(0, 100); c == nil || c.Worker != 0 {
					t.Errorf("%s: the other lane's record became unreadable: %+v", label, c)
				}
				if err := r.Verify(); err == nil {
					t.Errorf("%s: Verify passed", label)
				}
			}
		}
	}
}

// TestReaderPointReadChecksMagic: a point read never fetches the
// segment, but a segment that does not start with the magic still
// yields nothing and ErrBadMagic — checked once per segment, and again
// by a fresh Reader.
func TestReaderPointReadChecksMagic(t *testing.T) {
	for _, streamed := range []bool{false, true} {
		mem := dfs.NewMemFS()
		var fs dfs.FileSystem = mem
		if streamed {
			fs = streamOnly{mem}
		}
		store := NewStore(fs, "t")
		writeSinkJob(t, store, "job1", DefaultSegmentSize, laneBatchSize)
		good, err := store.OpenReader("job1")
		if err != nil {
			t.Fatal(err)
		}
		if c := good.Capture(1, 101); c == nil {
			t.Fatal("capture(1, 101) missing before the damage")
		}
		if good.SegmentReads() != 0 || good.RangeReads() != 2 {
			t.Errorf("streamed=%v: first point read cost %d segments and %d ranged reads, want 0 and 2 (magic, record)",
				streamed, good.SegmentReads(), good.RangeReads())
		}
		if good.Capture(1, 101); good.RangeReads() != 3 {
			t.Errorf("streamed=%v: second point read of the segment brought ranged reads to %d, want 3", streamed, good.RangeReads())
		}
		if want := int64(len(segMagic)) + 2*int64(good.vertexLoc[1].ents[0].ln); good.BytesRead() != want {
			t.Errorf("streamed=%v: BytesRead = %d, want the magic and the record twice (%d)", streamed, good.BytesRead(), want)
		}

		seg := "t/job1/" + good.segOrder[good.vertexLoc[1].ents[0].seg]
		raw, err := dfs.ReadFile(mem, seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, garbage := range [][]byte{append([]byte("NOTMAGIC"), raw[len(segMagic):]...), []byte("GRF"), {}} {
			if err := dfs.WriteFile(mem, seg, garbage); err != nil {
				t.Fatal(err)
			}
			r, err := store.OpenReader("job1")
			if err != nil {
				t.Fatal(err)
			}
			if c := r.Capture(1, 101); c != nil {
				t.Errorf("streamed=%v: capture served out of a segment starting %q", streamed, garbage[:min(8, len(garbage))])
			}
			if err := r.Err(); !errors.Is(err, ErrBadMagic) {
				t.Errorf("streamed=%v: Err = %v, want ErrBadMagic", streamed, err)
			}
		}
	}
}

// TestReaderConcurrentViews runs point and scan views of one fresh
// Reader from many goroutines, so the first use of each superstep's
// index — its sort — races with lookups in it. Run under -race.
func TestReaderConcurrentViews(t *testing.T) {
	fs := dfs.NewMemFS()
	store := NewStore(fs, "t")
	steps, ids := writeRandomJob(t, store, "job", rand.New(rand.NewSource(99)), false)
	ref, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, wantDigest := ref.TotalCaptures(), Digest(ref)

	r, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var seen int64
			for step := 0; step < steps; step++ {
				s := (step + g) % steps
				switch g % 4 {
				case 0:
					for id := 0; id < ids; id++ {
						if r.Capture(s, pregel.VertexID(id)) != nil {
							seen++
						}
					}
				case 1:
					seen += int64(len(r.CapturesAt(s)))
				case 2:
					seen += int64(len(r.Search(Query{Superstep: s})))
				case 3:
					r.StatusAt(s)
					r.SubgraphsAt(s)
					seen += int64(len(r.CapturesAt(s)))
				}
			}
			if seen != wantTotal {
				t.Errorf("goroutine %d saw %d captures, want %d", g, seen, wantTotal)
			}
			for id := 0; id < ids; id++ {
				r.CapturesOf(pregel.VertexID(id))
			}
		}(g)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := Digest(r); got != wantDigest {
		t.Errorf("digest after concurrent use %s, want %s", got, wantDigest)
	}
}

// TestReaderColdLookupOverCluster: over a replicated cluster a cold
// point lookup fetches the block holding the segment's magic and the
// block holding the record, not the segment; a miss is answered by the
// index and fetches nothing.
func TestReaderColdLookupOverCluster(t *testing.T) {
	const blockSize = 1024
	c := dfs.NewCluster(4, 2, blockSize)
	store := NewStore(c, "t")
	sink, err := store.newSink(JobMeta{JobID: "job", NumWorkers: 2}, 8*blockSize, laneBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for id := 0; id < 300; id++ {
			c := sampleVertexCapture()
			c.Superstep, c.Worker, c.ID = step, id%2, pregel.VertexID(id)
			if err := sink.WorkerSink(id % 2).WriteVertexCapture(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.BarrierFlush(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finish(JobResult{Supersteps: 3}); err != nil {
		t.Fatal(err)
	}

	r, err := store.OpenReader("job")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.segOrder) < 6 {
		t.Fatalf("only %d segments; the check needs a multi-segment trace", len(r.segOrder))
	}
	// A record deep in its segment that lies inside one block.
	var key recordLoc
	for _, e := range r.vertexLoc[1].sorted() {
		if e.off > 4*blockSize && e.off/blockSize == (e.off+int64(e.ln)-1)/blockSize {
			key = e
			break
		}
	}
	if key.ln == 0 {
		t.Fatal("no record inside a single block")
	}
	before := c.Stats().BytesRead
	if got := r.Capture(1, pregel.VertexID(key.id+1000)); got != nil {
		t.Fatalf("miss returned %+v", got)
	}
	if moved := c.Stats().BytesRead - before; moved != 0 || r.RangeReads() != 0 {
		t.Errorf("a miss fetched %d bytes in %d ranged reads", moved, r.RangeReads())
	}
	got := r.Capture(1, key.id)
	if got == nil || got.ID != key.id || got.Superstep != 1 {
		t.Fatalf("cold hit = %+v (%v)", got, r.Err())
	}
	if moved := c.Stats().BytesRead - before; moved == 0 || moved > 2*blockSize {
		t.Errorf("a cold hit fetched %d bytes from the cluster, want at most two %d-byte blocks", moved, blockSize)
	}
	if r.SegmentReads() != 0 {
		t.Errorf("a cold hit fetched %d whole segments", r.SegmentReads())
	}
	// The scan shape still reads segments, once each through the cache.
	if caps := r.CapturesAt(1); len(caps) != 300 {
		t.Fatalf("CapturesAt(1) = %d captures", len(caps))
	}
	segs := r.SegmentReads()
	if segs == 0 {
		t.Error("a step view fetched no segment")
	}
	before, ranges := c.Stats().BytesRead, r.RangeReads()
	if r.Capture(1, key.id) == nil || r.StatusAt(1) != StatusOf(r.CapturesAt(1)) {
		t.Fatal("views over resident segments disagree")
	}
	if c.Stats().BytesRead != before || r.RangeReads() != ranges || r.SegmentReads() != segs {
		t.Error("views over resident segments went back to storage")
	}
}
