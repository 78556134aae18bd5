package trace

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// ErrUnsupportedLayout is the sentinel wrapped by OpenReader for a job
// whose manifest does not declare the segmented layout (FormatSegments):
// a whole-file trace from a build that predates the Sink, or a format
// this build does not know. The message names the job and the layout.
var ErrUnsupportedLayout = errors.New("trace: unsupported trace layout")

// recordLoc locates one record: the segment's number (its position in
// Reader.segOrder) plus the payload's offset and length inside it. id is
// the vertex or subgraph ID the index files the record under. 24 bytes,
// no pointers.
type recordLoc struct {
	id  pregel.VertexID
	off int64
	seg uint32
	ln  uint32
}

// stepIndex is one superstep's share of the vertex or subgraph index:
// the ascending pieces of it that the segments hold, kept by reference
// in scan order. On first use they are joined, their ascending runs
// merged by ID and the last entry of a duplicate key kept — the scan
// order puts a recovery re-execution's record after the one it
// replaces. Lookups are binary searches.
type stepIndex struct {
	pieces [][]recordLoc
	n      int   // entries in pieces
	runs   []int // where each run after the first starts in the join
	ents   []recordLoc
	once   sync.Once
}

// addRun files an ascending piece of the superstep's entries.
func (x *stepIndex) addRun(run []recordLoc) {
	if k := len(x.pieces); k > 0 && run[0].id <= x.pieces[k-1][len(x.pieces[k-1])-1].id {
		x.runs = append(x.runs, x.n)
	}
	x.pieces = append(x.pieces, run)
	x.n += len(run)
}

// sorted returns the entries in ID order, one per ID. Safe for
// concurrent use once the Reader is open; a nil index is empty.
func (x *stepIndex) sorted() []recordLoc {
	if x == nil {
		return nil
	}
	x.once.Do(func() {
		x.ents, x.pieces = slices.Concat(x.pieces...), nil
		if len(x.runs) == 0 {
			return
		}
		ents := mergeRuns(x.ents, x.runs)
		out := ents[:0]
		for i, e := range ents {
			if i+1 < len(ents) && ents[i+1].id == e.id {
				continue // a later record of the same key wins
			}
			out = append(out, e)
		}
		x.ents, x.runs = out, nil
	})
	return x.ents
}

// mergeRuns sorts ents, ascending runs starting at 0 and at each of
// starts, stably by ID into ents or a new slice: it merges neighbouring
// runs pairwise until one is left, in O(len(ents)·log(runs)).
func mergeRuns(ents []recordLoc, starts []int) []recordLoc {
	bounds := append(append([]int{0}, starts...), len(ents))
	src, dst := ents, make([]recordLoc, len(ents))
	for ; len(bounds) > 2; src, dst = dst, src {
		next := bounds[:0] // written behind the reads
		for i := 0; i+1 < len(bounds); i += 2 {
			a, b := src[bounds[i]:bounds[i+1]], src[bounds[i+1]:bounds[min(i+2, len(bounds)-1)]]
			out := dst[bounds[i]:]
			for ; len(a) > 0 && len(b) > 0; out = out[1:] {
				if b[0].id < a[0].id {
					out[0], b = b[0], b[1:]
				} else {
					out[0], a = a[0], a[1:]
				}
			}
			copy(out[copy(out, a):], b)
			next = append(next, bounds[i])
		}
		bounds = append(next, len(ents))
	}
	return src
}

func (x *stepIndex) find(id pregel.VertexID) (recordLoc, bool) {
	ents := x.sorted()
	i, ok := slices.BinarySearchFunc(ents, id, func(e recordLoc, id pregel.VertexID) int { return cmp.Compare(e.id, id) })
	if !ok {
		return recordLoc{}, false
	}
	return ents[i], true
}

// Reader is the lazy, index-driven read half of the trace API. Open
// with Store.OpenReader. It loads only the index files up front and
// reads records in one of two shapes. A point view (Capture,
// CapturesOf, MetaAt, MasterAt, SubgraphAt's direct hit) fetches
// exactly the record's bytes with a ranged read, after checking the
// segment's magic once; a scan-shaped view (CapturesAt and everything
// built on it, SubgraphsAt, Verify) fetches whole segments through a
// bounded cache, which point views also serve from when resident;
// CapturesAt and SubgraphsAt decode on up to GOMAXPROCS goroutines.
//
// A superstep's index is merged into ID order on first use, and a
// CapturesAt pass keeps the superstep's status for StatusAt. Reader is
// safe for concurrent use.
type Reader struct {
	store *Store
	dir   string
	meta  JobMeta
	res   *JobResult

	metaLoc     map[int]recordLoc
	masterLoc   map[int]recordLoc
	vertexLoc   map[int]*stepIndex
	subgraphLoc map[int]*stepIndex
	steps       []int
	// vertexSteps lists vertexLoc's supersteps in ascending order.
	vertexSteps []int
	// segOrder lists every segment in lane+sequence order: the scan
	// order, under which the last record of a key is the one indexed.
	segOrder []string

	mu         sync.Mutex
	cache      map[uint32][]byte
	cacheOrder []uint32
	cacheBytes int
	cacheLimit int
	magicOK    map[uint32]bool // segments whose magic has been checked
	status     map[int]Status  // of each superstep a CapturesAt pass read whole
	err        error

	segReads   atomic.Int64
	rangeReads atomic.Int64
	bytesRead  atomic.Int64
	indexParts int
}

// maxSegmentCacheBytes bounds the Reader's in-memory segment cache.
const maxSegmentCacheBytes = 32 << 20

// OpenReader opens a job's trace for lazy, indexed reads. A job not
// written by Store.NewSink is rejected with ErrUnsupportedLayout.
func (s *Store) OpenReader(jobID string) (*Reader, error) {
	meta, err := s.ReadMeta(jobID)
	if err != nil {
		return nil, err
	}
	if meta.Format != FormatSegments {
		layout := meta.Format
		if layout == "" {
			layout = "whole-file .trace (no format in job.meta)"
		}
		return nil, fmt.Errorf("%w: job %q is in layout %s, this build reads only %s",
			ErrUnsupportedLayout, jobID, layout, FormatSegments)
	}
	r := &Reader{
		store:      s,
		dir:        s.jobDir(jobID),
		meta:       meta,
		cache:      map[uint32][]byte{},
		cacheLimit: maxSegmentCacheBytes,
		magicOK:    map[uint32]bool{},
		status:     map[int]Status{},
	}
	if res, done, err := s.ReadResult(jobID); err != nil {
		return nil, err
	} else if done {
		r.res = &res
	}
	if err := r.loadIndex(); err != nil {
		return nil, err
	}
	return r, nil
}

// loadIndex reads every index part of the job, fetched and parsed on up
// to GOMAXPROCS goroutines and filed in name order on the caller, then
// scans any segment files none of them names (committed without their
// part, by a crash or a failed part write) to synthesize their entries.
func (r *Reader) loadIndex() error {
	files, err := r.store.FS.List(r.dir + "/")
	if err != nil {
		return err
	}
	r.metaLoc = map[int]recordLoc{}
	r.masterLoc = map[int]recordLoc{}
	r.vertexLoc = map[int]*stepIndex{}
	r.subgraphLoc = map[int]*stepIndex{}

	var idxFiles, segFiles []string
	for _, name := range files {
		switch {
		case strings.HasSuffix(name, ".idx"):
			idxFiles = append(idxFiles, name)
		case strings.HasSuffix(name, ".seg"):
			segFiles = append(segFiles, strings.TrimPrefix(name, r.dir+"/"))
		}
	}
	sort.Strings(idxFiles)
	sort.Strings(segFiles)

	r.indexParts = len(idxFiles)
	parts := make([][]segLocs, len(idxFiles))
	errs := make([]error, len(idxFiles))
	fanOut(len(idxFiles), runtime.GOMAXPROCS(0), func(i int) { parts[i], errs[i] = r.parsePart(idxFiles[i]) })
	if err := cmp.Or(errs...); err != nil {
		return err
	}
	indexed := map[string]bool{}
	for _, segs := range parts {
		for j := range segs {
			indexed[segs[j].name] = true
			r.file(&segs[j], r.addSegment(segs[j].name))
		}
	}
	// Unindexed leftovers, in name (= seal sequence) order per lane:
	// newer than anything indexed, so they are filed after and win.
	for _, name := range segFiles {
		if indexed[name] {
			continue
		}
		num := r.addSegment(name)
		raw, err := r.segmentBytes(num)
		if err != nil {
			return err
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", name, err)
		}
		seg := segLocs{locs: make([]recordLoc, 0, len(ents))}
		for _, ent := range ents {
			seg.add(ent)
		}
		r.file(&seg, num)
	}
	for s := range r.metaLoc {
		r.steps = append(r.steps, s)
	}
	sort.Ints(r.steps)
	for s := range r.vertexLoc {
		r.vertexSteps = append(r.vertexSteps, s)
	}
	sort.Ints(r.vertexSteps)
	return nil
}

// addSegment gives the next segment in scan order its number.
func (r *Reader) addSegment(name string) uint32 {
	r.segOrder = append(r.segOrder, name)
	return uint32(len(r.segOrder) - 1)
}

// segLocs is one segment's index entries in record order, cut into
// pieces of one kind and superstep, ascending by ID: usually one piece
// per kind, as a lane writes a superstep ascending.
type segLocs struct {
	name   string
	locs   []recordLoc
	pieces []locPiece
}

type locPiece struct {
	kind   recordKind
	step   int
	lo, hi int
}

// parsePart fetches and parses one index part.
func (r *Reader) parsePart(path string) ([]segLocs, error) {
	raw, err := dfs.ReadFile(r.store.FS, path)
	if err != nil {
		return nil, err
	}
	var segs []segLocs
	err = walkIndex(raw, func(name string, entries int) {
		segs = append(segs, segLocs{name: name, locs: make([]recordLoc, 0, entries)})
	}, func(ent indexEntry) { segs[len(segs)-1].add(ent) })
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return segs, nil
}

// add appends an entry, starting a new piece where the kind or
// superstep changes or the ID does not ascend. walkIndex lets through
// no offset or length over MaxInt32, and scanned frames are in memory.
func (s *segLocs) add(ent indexEntry) {
	loc := recordLoc{id: pregel.VertexID(ent.ID), off: int64(ent.Offset), ln: uint32(ent.Length)}
	kind, n := recordKind(ent.Kind), len(s.locs)
	if p := len(s.pieces) - 1; p < 0 || s.pieces[p].kind != kind || s.pieces[p].step != ent.Step || loc.id <= s.locs[n-1].id {
		s.pieces = append(s.pieces, locPiece{kind: kind, step: ent.Step, lo: n})
	}
	s.locs = append(s.locs, loc)
	s.pieces[len(s.pieces)-1].hi = n + 1
}

// file numbers a segment's entries num and hands its pieces to the
// index: metadata and master records by value, the last one winning,
// and vertex and subgraph pieces by reference.
func (r *Reader) file(seg *segLocs, num uint32) {
	for i := range seg.locs {
		seg.locs[i].seg = num
	}
	for _, p := range seg.pieces {
		run := seg.locs[p.lo:p.hi:p.hi]
		switch p.kind {
		case kindSuperstepMeta:
			r.metaLoc[p.step] = run[len(run)-1]
		case kindMasterCapture:
			r.masterLoc[p.step] = run[len(run)-1]
		case kindVertexCapture, kindSubgraphCapture:
			m := r.vertexLoc
			if p.kind == kindSubgraphCapture {
				m = r.subgraphLoc
			}
			if m[p.step] == nil {
				m[p.step] = &stepIndex{}
			}
			m[p.step].addRun(run)
		}
	}
}

// fanOut calls fn for each of 0..n-1 on up to width goroutines, the
// caller one of them, and returns when all calls have.
func fanOut(n, width int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(n, width) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// segmentBytes returns a whole segment through the bounded cache: the
// scan-shaped read.
func (r *Reader) segmentBytes(seg uint32) ([]byte, error) {
	r.mu.Lock()
	b, ok := r.cache[seg]
	r.mu.Unlock()
	if ok {
		return b, nil
	}
	name := r.segOrder[seg]
	raw, err := dfs.ReadFile(r.store.FS, r.dir+"/"+name)
	if err != nil {
		return nil, err
	}
	if !hasSegMagic(raw) {
		return nil, fmt.Errorf("trace: %s: %w", name, ErrBadMagic)
	}
	r.segReads.Add(1)
	r.bytesRead.Add(int64(len(raw)))
	r.mu.Lock()
	r.magicOK[seg] = true
	if _, ok := r.cache[seg]; !ok {
		r.cache[seg] = raw
		r.cacheOrder = append(r.cacheOrder, seg)
		r.cacheBytes += len(raw)
		for r.cacheBytes > r.cacheLimit && len(r.cacheOrder) > 1 {
			old := r.cacheOrder[0]
			r.cacheOrder = r.cacheOrder[1:]
			r.cacheBytes -= len(r.cache[old])
			delete(r.cache, old)
		}
	}
	r.mu.Unlock()
	return raw, nil
}

// payload returns the bytes of the record at loc: a slice of the
// cached segment when it is resident, or else one ranged read, after the
// segment's magic has been checked once for this Reader.
func (r *Reader) payload(loc recordLoc) ([]byte, error) {
	r.mu.Lock()
	seg, resident := r.cache[loc.seg]
	r.mu.Unlock()
	if resident {
		return r.recordIn(seg, loc)
	}
	name := r.segOrder[loc.seg]
	if err := r.checkMagic(loc.seg); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", name, err)
	}
	b, err := r.readRange(r.dir+"/"+name, loc.off, int64(loc.ln))
	if errors.Is(err, dfs.ErrRange) {
		return nil, fmt.Errorf("trace: %s: index entry out of range", name)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", name, err)
	}
	return b, nil
}

// recordIn returns the bytes of the record at loc inside its whole
// segment.
func (r *Reader) recordIn(seg []byte, loc recordLoc) ([]byte, error) {
	if !loc.within(len(seg)) {
		return nil, fmt.Errorf("trace: %s: index entry out of range", r.segOrder[loc.seg])
	}
	return seg[loc.off : loc.off+int64(loc.ln)], nil
}

// within reports whether the record lies inside a segment of segLen
// bytes.
func (loc recordLoc) within(segLen int) bool {
	return loc.off >= 0 && loc.off <= int64(segLen) && int64(loc.ln) <= int64(segLen)-loc.off
}

// checkMagic makes, once per segment per Reader, the check a whole
// fetch makes: the file starts with the segment magic.
func (r *Reader) checkMagic(seg uint32) error {
	r.mu.Lock()
	checked := r.magicOK[seg]
	r.mu.Unlock()
	if checked {
		return nil
	}
	magic, err := r.readRange(r.dir+"/"+r.segOrder[seg], 0, int64(len(segMagic)))
	if errors.Is(err, dfs.ErrRange) || err == nil && !hasSegMagic(magic) {
		err = ErrBadMagic
	}
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.magicOK[seg] = true
	r.mu.Unlock()
	return nil
}

func (r *Reader) readRange(path string, off, n int64) ([]byte, error) {
	b, err := dfs.ReadRange(r.store.FS, path, off, n)
	if err == nil {
		r.rangeReads.Add(1)
		r.bytesRead.Add(n)
	}
	return b, err
}

// record fetches and decodes the record at loc with a point read,
// recording (not returning) errors so the accessors can stay
// nil-on-missing.
func (r *Reader) record(loc recordLoc) any {
	b, err := r.payload(loc)
	if err == nil {
		var rec any
		if rec, err = r.decode(b, loc, &captureSlab{}); err == nil {
			return rec
		}
	}
	r.setErr(err)
	return nil
}

func (r *Reader) decode(payload []byte, loc recordLoc, slab *captureSlab) (any, error) {
	rec, err := decodeRecord(payload, slab)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", r.segOrder[loc.seg], err)
	}
	return rec, nil
}

// decodeChunk is the fewest records decodeAll gives a goroutine.
const decodeChunk = 1024

// decodeAll decodes the records at ents, in order, keeping the T among
// them; complete reports that all were. On min(GOMAXPROCS,
// len(ents)/decodeChunk) goroutines, so that a small superstep stays on
// the caller's, it fetches each segment they name once, then decodes
// in as many contiguous chunks, each into its own range of out from
// its own captureSlab of slabSize. The failure earliest in ents goes to
// Err, as a walk in order would have it.
func decodeAll[T comparable](r *Reader, ents []recordLoc, slabSize int) (out []T, complete bool) {
	type fetched struct {
		raw  []byte
		err  error
		want bool
	}
	segs := make([]fetched, len(r.segOrder))
	var need []uint32
	for _, loc := range ents {
		if !segs[loc.seg].want {
			segs[loc.seg].want = true
			need = append(need, loc.seg)
		}
	}
	chunks := max(1, min(runtime.GOMAXPROCS(0), len(ents)/decodeChunk))
	fanOut(len(need), chunks, func(i int) {
		f := &segs[need[i]]
		f.raw, f.err = r.segmentBytes(need[i])
	})

	out = make([]T, len(ents))
	errs := make([]error, chunks)
	fanOut(chunks, chunks, func(c int) {
		slab := &captureSlab{size: slabSize}
		for i := c * len(ents) / chunks; i < (c+1)*len(ents)/chunks; i++ {
			loc := ents[i]
			b, err := segs[loc.seg].raw, segs[loc.seg].err
			if err == nil {
				b, err = r.recordIn(b, loc)
			}
			var rec any
			if err == nil {
				rec, err = r.decode(b, loc, slab)
			}
			if err != nil && errs[c] == nil {
				errs[c] = err
			}
			out[i], _ = rec.(T)
		}
	})
	if err := cmp.Or(errs...); err != nil {
		r.setErr(err)
	}
	var zero T
	out = slices.DeleteFunc(out, func(rec T) bool { return rec == zero })
	return out, len(out) == len(ents)
}

func (r *Reader) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Err returns the first segment read or decode failure encountered by
// the nil-on-missing accessors.
func (r *Reader) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// SegmentReads returns how many whole segment files have been fetched
// from storage (cache misses of the scan-shaped reads).
func (r *Reader) SegmentReads() int64 { return r.segReads.Load() }

// RangeReads returns how many ranged reads — a record's payload, or a
// segment's magic — point views have issued.
func (r *Reader) RangeReads() int64 { return r.rangeReads.Load() }

// BytesRead returns how many bytes the Reader has asked storage for
// since open, whole segments and ranges together; index files are not
// counted.
func (r *Reader) BytesRead() int64 { return r.bytesRead.Load() }

// IndexParts returns how many index files the Reader loaded on open:
// one per lane per flushed barrier, or one per lane for a trace in the
// old whole-sidecar layout.
func (r *Reader) IndexParts() int { return r.indexParts }

// JobMeta returns the job manifest.
func (r *Reader) JobMeta() JobMeta { return r.meta }

// JobResult returns the job result, or nil if the job has not
// written job.done.
func (r *Reader) JobResult() *JobResult {
	return r.res
}

// Supersteps returns the sorted superstep numbers with metadata.
func (r *Reader) Supersteps() []int {
	return r.steps
}

// MaxSuperstep returns the largest recorded superstep, or -1.
func (r *Reader) MaxSuperstep() int {
	if len(r.steps) == 0 {
		return -1
	}
	return r.steps[len(r.steps)-1]
}

// MetaAt returns the superstep metadata, or nil.
func (r *Reader) MetaAt(superstep int) *SuperstepMeta {
	loc, ok := r.metaLoc[superstep]
	if !ok {
		return nil
	}
	m, _ := r.record(loc).(*SuperstepMeta)
	return m
}

// MasterAt returns the master capture of a superstep, or nil.
func (r *Reader) MasterAt(superstep int) *MasterCapture {
	loc, ok := r.masterLoc[superstep]
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*MasterCapture)
	return c
}

// Capture returns one vertex's capture at one superstep, or nil: one
// binary search, one ranged read.
func (r *Reader) Capture(superstep int, id pregel.VertexID) *VertexCapture {
	loc, ok := r.vertexLoc[superstep].find(id)
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*VertexCapture)
	return c
}

// CapturesAt returns a superstep's captures sorted by vertex ID, decoded
// on up to GOMAXPROCS goroutines (decodeAll), and, when it decoded every
// one the index names, keeps their status.
func (r *Reader) CapturesAt(superstep int) []*VertexCapture {
	out, complete := decodeAll[*VertexCapture](r, r.vertexLoc[superstep].sorted(), 256)
	if complete && len(out) > 0 {
		st := StatusOf(out)
		r.mu.Lock()
		r.status[superstep] = st
		r.mu.Unlock()
	}
	return out
}

// CapturesOf returns one vertex's captures in superstep order.
func (r *Reader) CapturesOf(id pregel.VertexID) []*VertexCapture {
	var out []*VertexCapture
	for _, s := range r.vertexSteps {
		if c := r.Capture(s, id); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// CapturedVertexIDs returns the sorted IDs of captured vertices,
// answered from the index alone.
func (r *Reader) CapturedVertexIDs() []pregel.VertexID {
	var out []pregel.VertexID
	for _, x := range r.vertexLoc {
		for _, e := range x.sorted() {
			out = append(out, e.id)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TotalCaptures returns the number of vertex capture records, answered
// from the index alone.
func (r *Reader) TotalCaptures() int64 {
	var n int64
	for _, x := range r.vertexLoc {
		n += int64(len(x.sorted()))
	}
	return n
}

// ViolationsAt returns one superstep's violation rows.
func (r *Reader) ViolationsAt(superstep int) []ViolationRow {
	return ViolationRows(superstep, r.CapturesAt(superstep))
}

// AllViolations returns every violation row across supersteps.
func (r *Reader) AllViolations() []ViolationRow {
	var rows []ViolationRow
	for _, s := range r.steps {
		rows = append(rows, r.ViolationsAt(s)...)
	}
	return rows
}

// StatusAt returns the M/V/E status boxes of one superstep, kept by a
// CapturesAt pass or computed by one.
func (r *Reader) StatusAt(superstep int) Status {
	r.mu.Lock()
	st, ok := r.status[superstep]
	r.mu.Unlock()
	if ok {
		return st
	}
	return StatusOf(r.CapturesAt(superstep))
}

// SubgraphsAt returns a superstep's subgraph captures sorted by
// subgraph ID. Empty for vertex-mode jobs.
func (r *Reader) SubgraphsAt(superstep int) []*SubgraphCapture {
	out, _ := decodeAll[*SubgraphCapture](r, r.subgraphLoc[superstep].sorted(), 0)
	return out
}

// SubgraphAt returns the subgraph capture containing vertex id at one
// superstep, or nil. The index is keyed by subgraph ID, so a non-ID
// member costs a scan of the superstep's subgraph captures.
func (r *Reader) SubgraphAt(superstep int, id pregel.VertexID) *SubgraphCapture {
	if loc, ok := r.subgraphLoc[superstep].find(id); ok {
		if c, _ := r.record(loc).(*SubgraphCapture); c != nil {
			return c
		}
	}
	return findMemberSubgraph(r.SubgraphsAt(superstep), id)
}

// Search returns captures matching q in (superstep, vertex) order. A
// query for one vertex reads its record in each superstep asked for by
// key, as Capture does; any other query decodes those supersteps whole.
func (r *Reader) Search(q Query) []*VertexCapture {
	var out []*VertexCapture
	steps := r.steps
	if q.Superstep >= 0 {
		steps = []int{q.Superstep}
	}
	for _, s := range steps {
		var caps []*VertexCapture
		switch {
		case q.VertexID != nil:
			if c := r.Capture(s, *q.VertexID); c != nil {
				caps = []*VertexCapture{c}
			}
		case q.NeighborID == nil && q.ValueContains == "" && q.MessageContains == "":
			caps = r.CapturesAt(s)
		default: // keeps a few of many, which must not pin shared slabs
			caps, _ = decodeAll[*VertexCapture](r, r.vertexLoc[s].sorted(), 0)
		}
		for _, c := range caps {
			if q.matches(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// recordKey is what the index files a record under.
type recordKey struct {
	kind recordKind
	step int
	id   pregel.VertexID
}

// eachLoc calls fn for every record the index names.
func (r *Reader) eachLoc(fn func(recordKey, recordLoc)) {
	for s, loc := range r.metaLoc {
		fn(recordKey{kind: kindSuperstepMeta, step: s}, loc)
	}
	for s, loc := range r.masterLoc {
		fn(recordKey{kind: kindMasterCapture, step: s}, loc)
	}
	for s, x := range r.vertexLoc {
		for _, loc := range x.sorted() {
			fn(recordKey{kindVertexCapture, s, loc.id}, loc)
		}
	}
	for s, x := range r.subgraphLoc {
		for _, loc := range x.sorted() {
			fn(recordKey{kindSubgraphCapture, s, loc.id}, loc)
		}
	}
}

// Verify checks the index against the segments without trusting either:
// it reads every segment once, in scan order, walks its frames the way
// the unindexed-segment scan does, decodes each record, and keeps the
// hash of the last payload seen under each (kind, superstep, id); the
// index must then name exactly those keys, and the bytes at each
// indexed location must hash to the same value. It is what graft
// trace-check runs.
func (r *Reader) Verify() error {
	type entry struct {
		key recordKey
		loc recordLoc
	}
	bySeg := make([][]entry, len(r.segOrder))
	r.eachLoc(func(k recordKey, loc recordLoc) {
		bySeg[loc.seg] = append(bySeg[loc.seg], entry{k, loc})
	})
	seed := maphash.MakeSeed()
	scanned := map[recordKey]uint64{}
	indexed := map[recordKey]uint64{}
	for num, name := range r.segOrder {
		raw, err := dfs.ReadFile(r.store.FS, r.dir+"/"+name)
		if err != nil {
			return err
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", name, err)
		}
		for _, ent := range ents {
			payload := raw[ent.Offset : ent.Offset+ent.Length]
			if _, err := decodeRecordPayload(payload); err != nil {
				return fmt.Errorf("trace: %s: record at offset %d: %w", name, ent.Offset, err)
			}
			k := recordKey{recordKind(ent.Kind), ent.Step, pregel.VertexID(ent.ID)}
			scanned[k] = maphash.Bytes(seed, payload)
		}
		for _, e := range bySeg[num] {
			if !e.loc.within(len(raw)) {
				return fmt.Errorf("trace: %s: index entry for %+v points outside the segment", name, e.key)
			}
			indexed[e.key] = maphash.Bytes(seed, raw[e.loc.off:e.loc.off+int64(e.loc.ln)])
		}
	}
	for k, h := range scanned {
		ih, ok := indexed[k]
		if !ok {
			return fmt.Errorf("trace: record %+v is in the segments but not in the index", k)
		}
		if ih != h {
			return fmt.Errorf("trace: index entry for %+v does not locate the record the segments hold", k)
		}
	}
	for k := range indexed {
		if _, ok := scanned[k]; !ok {
			return fmt.Errorf("trace: index names record %+v, which no segment holds", k)
		}
	}
	return nil
}
