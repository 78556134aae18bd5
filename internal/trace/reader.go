package trace

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// View is the read surface of a trace: everything the GUI pages and the
// Context Reproducer ask of one. Reader implements it.
type View interface {
	// JobMeta returns the job manifest.
	JobMeta() JobMeta
	// JobResult returns the job result, or nil if the job has not
	// written job.done.
	JobResult() *JobResult
	// Supersteps returns the sorted superstep numbers with metadata.
	Supersteps() []int
	// MaxSuperstep returns the largest recorded superstep, or -1.
	MaxSuperstep() int
	// MetaAt returns the superstep metadata, or nil.
	MetaAt(superstep int) *SuperstepMeta
	// MasterAt returns the master capture of a superstep, or nil.
	MasterAt(superstep int) *MasterCapture
	// Capture returns one vertex's capture at one superstep, or nil.
	Capture(superstep int, id pregel.VertexID) *VertexCapture
	// CapturesAt returns a superstep's captures sorted by vertex ID.
	CapturesAt(superstep int) []*VertexCapture
	// CapturesOf returns one vertex's captures in superstep order.
	CapturesOf(id pregel.VertexID) []*VertexCapture
	// CapturedVertexIDs returns the sorted IDs of captured vertices.
	CapturedVertexIDs() []pregel.VertexID
	// TotalCaptures returns the number of vertex capture records.
	TotalCaptures() int64
	// ViolationsAt returns one superstep's violation rows.
	ViolationsAt(superstep int) []ViolationRow
	// AllViolations returns every violation row across supersteps.
	AllViolations() []ViolationRow
	// StatusAt computes the M/V/E status boxes of one superstep.
	StatusAt(superstep int) Status
	// Search returns captures matching q in (superstep, vertex) order.
	Search(q Query) []*VertexCapture
	// SubgraphsAt returns a superstep's subgraph captures sorted by
	// subgraph ID. Empty for vertex-mode jobs.
	SubgraphsAt(superstep int) []*SubgraphCapture
	// SubgraphAt returns the subgraph capture containing vertex id at
	// one superstep, or nil.
	SubgraphAt(superstep int, id pregel.VertexID) *SubgraphCapture
}

var _ View = (*Reader)(nil)

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
// a flat slice appended in scan order at open and, on first use,
// stable-sorted by ID with the last entry of a duplicate key kept — the
// scan order puts a recovery re-execution's record after the one it
// replaces. Lookups are binary searches.
type stepIndex struct {
	ents []recordLoc
	// inOrder stays true while entries arrive strictly ascending by ID,
	// in which case there is nothing to sort or drop.
	inOrder bool
	once    sync.Once
}

func (x *stepIndex) add(loc recordLoc) {
	if n := len(x.ents); n == 0 {
		x.inOrder = true
	} else if loc.id <= x.ents[n-1].id {
		x.inOrder = false
	}
	x.ents = append(x.ents, loc)
}

// sorted returns the entries in ID order, one per ID. Safe for
// concurrent use once the Reader is open; a nil index is empty.
func (x *stepIndex) sorted() []recordLoc {
	if x == nil {
		return nil
	}
	x.once.Do(func() {
		if x.inOrder {
			return
		}
		slices.SortStableFunc(x.ents, func(a, b recordLoc) int { return cmp.Compare(a.id, b.id) })
		out := x.ents[:0]
		for i, e := range x.ents {
			if i+1 < len(x.ents) && x.ents[i+1].id == e.id {
				continue // a later record of the same key wins
			}
			out = append(out, e)
		}
		x.ents = out
	})
	return x.ents
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
// bounded cache, which point views also serve from when the segment is
// resident.
//
// Reader is safe for concurrent use.
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

// loadIndex reads every index file of the job in name order — a lane's
// parts in the new layout, its one whole sidecar in the old — then
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
	indexed := map[string]bool{}
	for _, idxPath := range idxFiles {
		raw, err := dfs.ReadFile(r.store.FS, idxPath)
		if err != nil {
			return err
		}
		segs, err := segio.DecodeIndex(raw)
		if errors.Is(err, segio.ErrBadMagic) {
			err = ErrBadMagic
		}
		if err != nil {
			return fmt.Errorf("trace: %s: %w", idxPath, err)
		}
		for _, seg := range segs {
			indexed[seg.Name] = true
			num := r.addSegment(seg.Name)
			for _, ent := range seg.Entries {
				r.place(ent, num)
			}
		}
	}
	// Unindexed leftovers, in name (= seal sequence) order per lane:
	// newer than anything indexed, so they are placed after and win.
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
		for _, ent := range ents {
			r.place(ent, num)
		}
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

func (r *Reader) place(ent segio.Entry, seg uint32) {
	// segio.DecodeIndex lets through no offset or length over MaxInt32,
	// and a scanned segment's frames were walked in memory.
	loc := recordLoc{id: pregel.VertexID(ent.ID), seg: seg, off: int64(ent.Offset), ln: uint32(ent.Length)}
	switch recordKind(ent.Kind) {
	case kindSuperstepMeta:
		r.metaLoc[ent.Step] = loc
	case kindMasterCapture:
		r.masterLoc[ent.Step] = loc
	case kindVertexCapture:
		stepIndexOf(r.vertexLoc, ent.Step).add(loc)
	case kindSubgraphCapture:
		stepIndexOf(r.subgraphLoc, ent.Step).add(loc)
	}
}

func stepIndexOf(m map[int]*stepIndex, step int) *stepIndex {
	x := m[step]
	if x == nil {
		x = &stepIndex{}
		m[step] = x
	}
	return x
}

// scanSegmentEntries walks a segment's frames and synthesizes index
// entries, decoding only each record's envelope (kind, superstep,
// vertex ID).
func scanSegmentEntries(data []byte) ([]segio.Entry, error) {
	if !hasSegMagic(data) {
		return nil, ErrBadMagic
	}
	var ents []segio.Entry
	off := len(segMagic)
	for off < len(data) {
		d := pregel.NewDecoder(data[off:])
		payload := d.Bytes()
		if d.Err() != nil {
			return nil, d.Err()
		}
		off = len(data) - d.Remaining() // frame end
		payloadOff := off - len(payload)
		pd := pregel.NewDecoder(payload)
		ent := segio.Entry{
			Kind:   uint8(pd.Uvarint()),
			Step:   int(pd.Uvarint()),
			Offset: payloadOff,
			Length: len(payload),
		}
		if k := recordKind(ent.Kind); k == kindVertexCapture || k == kindSubgraphCapture {
			pd.Uvarint() // worker
			ent.ID = pd.Varint()
		}
		if pd.Err() != nil {
			return nil, pd.Err()
		}
		ents = append(ents, ent)
	}
	return ents, nil
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

func hasSegMagic(b []byte) bool {
	return len(b) >= len(segMagic) && string(b[:len(segMagic)]) == segMagic
}

// payload returns the bytes of the record at loc. With whole set (a
// scan-shaped view, about to ask for the segment's other records too)
// or when the segment is already resident, they are a slice of the
// cached segment; otherwise they are fetched with one ranged read,
// after the segment's magic has been checked once for this Reader.
func (r *Reader) payload(loc recordLoc, whole bool) ([]byte, error) {
	name := r.segOrder[loc.seg]
	var seg []byte
	var resident bool
	if whole {
		var err error
		if seg, err = r.segmentBytes(loc.seg); err != nil {
			return nil, err
		}
		resident = true
	} else {
		r.mu.Lock()
		seg, resident = r.cache[loc.seg]
		r.mu.Unlock()
	}
	if resident {
		if !loc.within(len(seg)) {
			return nil, fmt.Errorf("trace: %s: index entry out of range", name)
		}
		return seg[loc.off : loc.off+int64(loc.ln)], nil
	}
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

// record fetches and decodes the record at loc, recording (not
// returning) errors so View accessors can stay nil-on-missing.
func (r *Reader) record(loc recordLoc, whole bool) any {
	b, err := r.payload(loc, whole)
	if err != nil {
		r.setErr(err)
		return nil
	}
	rec, err := decodeRecordPayload(b)
	if err != nil {
		r.setErr(fmt.Errorf("trace: %s: %w", r.segOrder[loc.seg], err))
		return nil
	}
	return rec
}

func (r *Reader) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Err returns the first segment read or decode failure encountered by
// the nil-on-missing View accessors.
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

// JobMeta implements View.
func (r *Reader) JobMeta() JobMeta { return r.meta }

// JobResult implements View.
func (r *Reader) JobResult() *JobResult {
	return r.res
}

// Supersteps implements View.
func (r *Reader) Supersteps() []int {
	return r.steps
}

// MaxSuperstep implements View.
func (r *Reader) MaxSuperstep() int {
	if len(r.steps) == 0 {
		return -1
	}
	return r.steps[len(r.steps)-1]
}

// MetaAt implements View.
func (r *Reader) MetaAt(superstep int) *SuperstepMeta {
	loc, ok := r.metaLoc[superstep]
	if !ok {
		return nil
	}
	m, _ := r.record(loc, false).(*SuperstepMeta)
	return m
}

// MasterAt implements View.
func (r *Reader) MasterAt(superstep int) *MasterCapture {
	loc, ok := r.masterLoc[superstep]
	if !ok {
		return nil
	}
	c, _ := r.record(loc, false).(*MasterCapture)
	return c
}

// Capture implements View: one binary search, one ranged read.
func (r *Reader) Capture(superstep int, id pregel.VertexID) *VertexCapture {
	loc, ok := r.vertexLoc[superstep].find(id)
	if !ok {
		return nil
	}
	c, _ := r.record(loc, false).(*VertexCapture)
	return c
}

// CapturesAt implements View.
func (r *Reader) CapturesAt(superstep int) []*VertexCapture {
	ents := r.vertexLoc[superstep].sorted()
	out := make([]*VertexCapture, 0, len(ents))
	for _, loc := range ents {
		if c, _ := r.record(loc, true).(*VertexCapture); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// CapturesOf implements View.
func (r *Reader) CapturesOf(id pregel.VertexID) []*VertexCapture {
	var out []*VertexCapture
	for _, s := range r.vertexSteps {
		if c := r.Capture(s, id); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// CapturedVertexIDs implements View, answered from the index alone.
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

// TotalCaptures implements View, answered from the index alone.
func (r *Reader) TotalCaptures() int64 {
	var n int64
	for _, x := range r.vertexLoc {
		n += int64(len(x.sorted()))
	}
	return n
}

// ViolationsAt implements View.
func (r *Reader) ViolationsAt(superstep int) []ViolationRow {
	return ViolationRows(superstep, r.CapturesAt(superstep))
}

// AllViolations implements View.
func (r *Reader) AllViolations() []ViolationRow {
	var rows []ViolationRow
	for _, s := range r.steps {
		rows = append(rows, r.ViolationsAt(s)...)
	}
	return rows
}

// StatusAt implements View.
func (r *Reader) StatusAt(superstep int) Status {
	return StatusOf(r.CapturesAt(superstep))
}

// SubgraphsAt implements View.
func (r *Reader) SubgraphsAt(superstep int) []*SubgraphCapture {
	ents := r.subgraphLoc[superstep].sorted()
	out := make([]*SubgraphCapture, 0, len(ents))
	for _, loc := range ents {
		if c, _ := r.record(loc, true).(*SubgraphCapture); c != nil {
			out = append(out, c)
		}
	}
	return out
}

// SubgraphAt implements View. The index is keyed by subgraph ID, so a
// non-ID member costs a scan of the superstep's subgraph captures.
func (r *Reader) SubgraphAt(superstep int, id pregel.VertexID) *SubgraphCapture {
	if loc, ok := r.subgraphLoc[superstep].find(id); ok {
		if c, _ := r.record(loc, false).(*SubgraphCapture); c != nil {
			return c
		}
	}
	return findMemberSubgraph(r.SubgraphsAt(superstep), id)
}

// Search implements View.
func (r *Reader) Search(q Query) []*VertexCapture {
	var out []*VertexCapture
	steps := r.steps
	if q.Superstep >= 0 {
		steps = []int{q.Superstep}
	}
	for _, s := range steps {
		for _, c := range r.CapturesAt(s) {
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
