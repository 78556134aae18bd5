package trace

import (
	"errors"
	"fmt"
	"hash/maphash"
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

// recordLoc locates one record: segment name relative to the job
// directory plus the payload's offset and length inside it.
type recordLoc struct {
	seg string
	off int
	ln  int
}

// Reader is the lazy, index-driven read half of the trace API. Open
// with Store.OpenReader. It loads only the index files up front; record
// payloads are fetched segment by segment as views ask for them,
// through a bounded segment cache — a GUI page or a replay reads only
// the segments holding what it renders.
//
// Reader is safe for concurrent use.
type Reader struct {
	store *Store
	dir   string
	meta  JobMeta
	res   *JobResult

	metaLoc     map[int]recordLoc
	masterLoc   map[int]recordLoc
	vertexLoc   map[int]map[pregel.VertexID]recordLoc
	subgraphLoc map[int]map[pregel.VertexID]recordLoc
	steps       []int
	// segOrder lists every segment in lane+sequence order: the scan
	// order, under which the last record of a key is the one indexed.
	segOrder []string

	mu         sync.Mutex
	cache      map[string][]byte
	cacheOrder []string
	cacheBytes int
	cacheLimit int
	segReads   atomic.Int64
	indexParts int
	err        error
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
		cache:      map[string][]byte{},
		cacheLimit: maxSegmentCacheBytes,
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
	r.vertexLoc = map[int]map[pregel.VertexID]recordLoc{}
	r.subgraphLoc = map[int]map[pregel.VertexID]recordLoc{}

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
			r.segOrder = append(r.segOrder, seg.Name)
			for _, ent := range seg.Entries {
				r.place(ent, seg.Name)
			}
		}
	}
	// Unindexed leftovers, in name (= seal sequence) order per lane:
	// newer than anything indexed, so they are placed after and win.
	for _, name := range segFiles {
		if indexed[name] {
			continue
		}
		raw, err := r.segmentBytes(name)
		if err != nil {
			return err
		}
		ents, err := scanSegmentEntries(raw)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", name, err)
		}
		r.segOrder = append(r.segOrder, name)
		for _, ent := range ents {
			r.place(ent, name)
		}
	}
	for s := range r.metaLoc {
		r.steps = append(r.steps, s)
	}
	sort.Ints(r.steps)
	return nil
}

func (r *Reader) place(ent segio.Entry, seg string) {
	loc := recordLoc{seg: seg, off: ent.Offset, ln: ent.Length}
	switch recordKind(ent.Kind) {
	case kindSuperstepMeta:
		r.metaLoc[ent.Step] = loc
	case kindMasterCapture:
		r.masterLoc[ent.Step] = loc
	case kindVertexCapture:
		m := r.vertexLoc[ent.Step]
		if m == nil {
			m = map[pregel.VertexID]recordLoc{}
			r.vertexLoc[ent.Step] = m
		}
		m[pregel.VertexID(ent.ID)] = loc
	case kindSubgraphCapture:
		m := r.subgraphLoc[ent.Step]
		if m == nil {
			m = map[pregel.VertexID]recordLoc{}
			r.subgraphLoc[ent.Step] = m
		}
		m[pregel.VertexID(ent.ID)] = loc
	}
}

// scanSegmentEntries walks a segment's frames and synthesizes index
// entries, decoding only each record's envelope (kind, superstep,
// vertex ID).
func scanSegmentEntries(data []byte) ([]segio.Entry, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
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

// segmentBytes returns a segment's contents through the bounded cache.
func (r *Reader) segmentBytes(name string) ([]byte, error) {
	r.mu.Lock()
	if b, ok := r.cache[name]; ok {
		r.mu.Unlock()
		return b, nil
	}
	r.mu.Unlock()
	raw, err := dfs.ReadFile(r.store.FS, r.dir+"/"+name)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("trace: %s: %w", name, ErrBadMagic)
	}
	r.segReads.Add(1)
	r.mu.Lock()
	if _, ok := r.cache[name]; !ok {
		r.cache[name] = raw
		r.cacheOrder = append(r.cacheOrder, name)
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

// record fetches and decodes the record at loc, recording (not
// returning) errors so View accessors can stay nil-on-missing.
func (r *Reader) record(loc recordLoc) any {
	seg, err := r.segmentBytes(loc.seg)
	if err != nil {
		r.setErr(err)
		return nil
	}
	if loc.off < 0 || loc.off+loc.ln > len(seg) {
		r.setErr(fmt.Errorf("trace: %s: index entry out of range", loc.seg))
		return nil
	}
	rec, err := decodeRecordPayload(seg[loc.off : loc.off+loc.ln])
	if err != nil {
		r.setErr(fmt.Errorf("trace: %s: %w", loc.seg, err))
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

// SegmentReads returns how many segment files have been fetched from
// storage (cache misses): what the single-segment-lookup acceptance
// check measures.
func (r *Reader) SegmentReads() int64 { return r.segReads.Load() }

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
	m, _ := r.record(loc).(*SuperstepMeta)
	return m
}

// MasterAt implements View.
func (r *Reader) MasterAt(superstep int) *MasterCapture {
	loc, ok := r.masterLoc[superstep]
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*MasterCapture)
	return c
}

// Capture implements View: one index lookup, one segment fetch.
func (r *Reader) Capture(superstep int, id pregel.VertexID) *VertexCapture {
	loc, ok := r.vertexLoc[superstep][id]
	if !ok {
		return nil
	}
	c, _ := r.record(loc).(*VertexCapture)
	return c
}

// CapturesAt implements View.
func (r *Reader) CapturesAt(superstep int) []*VertexCapture {
	m := r.vertexLoc[superstep]
	out := make([]*VertexCapture, 0, len(m))
	for _, loc := range m {
		if c, _ := r.record(loc).(*VertexCapture); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CapturesOf implements View.
func (r *Reader) CapturesOf(id pregel.VertexID) []*VertexCapture {
	var out []*VertexCapture
	for _, m := range r.vertexLoc {
		if loc, ok := m[id]; ok {
			if c, _ := r.record(loc).(*VertexCapture); c != nil {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Superstep < out[j].Superstep })
	return out
}

// CapturedVertexIDs implements View, answered from the index alone.
func (r *Reader) CapturedVertexIDs() []pregel.VertexID {
	seen := map[pregel.VertexID]bool{}
	for _, m := range r.vertexLoc {
		for id := range m {
			seen[id] = true
		}
	}
	out := make([]pregel.VertexID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCaptures implements View, answered from the index alone.
func (r *Reader) TotalCaptures() int64 {
	var n int64
	for _, m := range r.vertexLoc {
		n += int64(len(m))
	}
	return n
}

// ViolationsAt implements View.
func (r *Reader) ViolationsAt(superstep int) []ViolationRow {
	return violationRows(superstep, r.CapturesAt(superstep))
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
	return statusOf(r.CapturesAt(superstep))
}

// SubgraphsAt implements View.
func (r *Reader) SubgraphsAt(superstep int) []*SubgraphCapture {
	m := r.subgraphLoc[superstep]
	out := make([]*SubgraphCapture, 0, len(m))
	for _, loc := range m {
		if c, _ := r.record(loc).(*SubgraphCapture); c != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SubgraphAt implements View. The index is keyed by subgraph ID, so a
// non-ID member costs a scan of the superstep's subgraph captures.
func (r *Reader) SubgraphAt(superstep int, id pregel.VertexID) *SubgraphCapture {
	if loc, ok := r.subgraphLoc[superstep][id]; ok {
		if c, _ := r.record(loc).(*SubgraphCapture); c != nil {
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
	for s, m := range r.vertexLoc {
		for id, loc := range m {
			fn(recordKey{kindVertexCapture, s, id}, loc)
		}
	}
	for s, m := range r.subgraphLoc {
		for id, loc := range m {
			fn(recordKey{kindSubgraphCapture, s, id}, loc)
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
	bySeg := map[string][]entry{}
	r.eachLoc(func(k recordKey, loc recordLoc) {
		bySeg[loc.seg] = append(bySeg[loc.seg], entry{k, loc})
	})
	seed := maphash.MakeSeed()
	scanned := map[recordKey]uint64{}
	indexed := map[recordKey]uint64{}
	for _, name := range r.segOrder {
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
		for _, e := range bySeg[name] {
			if e.loc.off < 0 || e.loc.ln < 0 || e.loc.off+e.loc.ln > len(raw) {
				return fmt.Errorf("trace: %s: index entry for %+v points outside the segment", name, e.key)
			}
			indexed[e.key] = maphash.Bytes(seed, raw[e.loc.off:e.loc.off+e.loc.ln])
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
