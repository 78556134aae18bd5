// Package segio implements the append-only segment+index container
// format of the trace store. A lane is a directory of segment files and
// index parts:
//
//	<dir>/<lane>/seg_000000.seg
//	<dir>/<lane>/seg_000001.seg
//	<dir>/<lane>/idx_000000.idx
//	<dir>/<lane>/idx_000001.idx
//
// A segment file is the magic "GRFTSEG1" followed by framed records
// (uvarint payload length ++ payload). Segments are sealed — committed
// whole through the atomic-on-close file system — at a size threshold
// and at every flush, which is what makes the format crash-consistent:
// everything up to the last completed flush is durable.
//
// An index part is the magic "GRFTIDX1" followed by, per segment it
// names, the file name and one (kind, step, id, offset, length) entry
// per record, where offset/length locate the record's payload inside
// the segment file. The index is append-only: each flush writes one new
// part naming only the segments sealed since the previous part, so a
// flush costs the bytes it adds however long the lane already is. A
// segment is always committed before the part that names it; a reader
// that finds a segment no part names (a crash, or a failed part write,
// in between) recovers its entries by scanning the segment, and the
// writer's next part covers it. The parts of a lane, read in name
// order, list its segments in seal order. The byte layout is the trace
// store's original GRFTIDX1 encoding, in which a lane had one
// "<dir>/<lane>.idx" rewritten whole at every flush: such a file is
// simply a lane with a single part, and a reader that loads every
// "*.idx" it lists in name order reads both.
//
// The package is deliberately a leaf: apart from the standard library it
// depends only on dfs, for the file-system contract it writes through,
// so the container format can be tested apart from the trace records it
// carries.
package segio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"graft/internal/dfs"
)

const (
	// SegMagic prefixes every segment file.
	SegMagic = "GRFTSEG1"
	// IdxMagic prefixes every index sidecar.
	IdxMagic = "GRFTIDX1"
)

// ErrBadMagic is returned when a segment or index file does not start
// with its magic.
var ErrBadMagic = errors.New("segio: bad magic")

// ErrCorrupt is returned when an index or frame is malformed.
var ErrCorrupt = errors.New("segio: corrupt data")

// Entry locates one record's payload inside a segment file. Kind, Step
// and ID are the record's coordinates: the trace store's record kind,
// superstep and vertex ID.
type Entry struct {
	Kind   uint8
	Step   int
	ID     int64
	Offset int // payload start within the segment file
	Length int // payload length
}

// SegmentIndex is the index of one sealed segment: its file name
// (relative to the writer's directory) and the entries in record order.
type SegmentIndex struct {
	Name    string
	Entries []Entry
}

// Part is one committed index part: its file name (relative to the
// writer's directory, like SegmentIndex.Name) and the segments it
// names, in seal order.
type Part struct {
	Name     string
	Segments []SegmentIndex
}

// Writer owns one lane: it buffers the current segment in memory,
// seals it to a segment file when full or on Flush, and appends index
// parts. It keeps no record of what it has indexed: each Flush returns
// the Part it wrote. Not safe for concurrent use; each lane must have
// exactly one writing goroutine.
type Writer struct {
	fs      dfs.FileSystem
	dir     string
	lane    string
	segSize int
	// onDrop, if non-nil, is called with the number of records
	// discarded when a segment cannot be committed.
	onDrop func(n int)

	buf bytes.Buffer // current open segment, magic included
	cur []Entry
	// pending holds the segments sealed since the last committed part:
	// the watermark a failed part write leaves in place for the next.
	pending []SegmentIndex
	idx     []byte // part encoding scratch
	segSeq  int
	partSeq int
	recs    int64
}

// NewWriter creates a writer for one lane under dir. Segments are
// sealed when the open buffer reaches segSize (and on every Flush).
func NewWriter(fs dfs.FileSystem, dir, lane string, segSize int, onDrop func(n int)) *Writer {
	w := &Writer{fs: fs, dir: dir, lane: lane, segSize: segSize, onDrop: onDrop}
	w.buf.WriteString(SegMagic)
	return w
}

// Path resolves a segment's or part's directory-relative name (as in
// SegmentIndex.Name and Part.Name) to its full path.
func (w *Writer) Path(name string) string { return w.dir + "/" + name }

// Records returns how many records have been appended.
func (w *Writer) Records() int64 { return w.recs }

// AppendFramed copies a batch of pre-framed records — each frame a
// uvarint length ++ payload, each entry's Offset relative to the start
// of frames — into the open segment, then seals it once it passes the
// size threshold.
func (w *Writer) AppendFramed(frames []byte, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	delta := w.buf.Len()
	w.buf.Write(frames)
	for _, ent := range entries {
		ent.Offset += delta
		w.cur = append(w.cur, ent)
	}
	w.recs += int64(len(entries))
	if w.buf.Len() >= w.segSize {
		return w.Seal()
	}
	return nil
}

// Seal commits the open segment as its own file. Empty segments are
// skipped so flushes without records cost no file. A segment that
// cannot be committed is discarded — its records are reported to
// onDrop — so a persistently failing store can never grow the buffer
// without bound.
func (w *Writer) Seal() error {
	if len(w.cur) == 0 {
		return nil
	}
	name := fmt.Sprintf("%s/seg_%06d.seg", w.lane, w.segSeq)
	err := dfs.WriteFile(w.fs, w.Path(name), w.buf.Bytes())
	if err != nil {
		if w.onDrop != nil {
			w.onDrop(len(w.cur))
		}
	} else {
		w.pending = append(w.pending, SegmentIndex{Name: name, Entries: w.cur})
		w.segSeq++
	}
	w.cur = nil
	w.buf.Reset()
	w.buf.WriteString(SegMagic)
	return err
}

// Flush seals the open segment and commits one index part naming the
// segments sealed since the previous part, which it returns; with
// nothing new it writes no file and returns the zero Part. After Flush
// returns nil, every record appended so far is durable and indexed (or
// has been reported dropped). If the part cannot be written its
// segments stay pending — durable, found by a reader's segment scan —
// and the next Flush's part names them. A failed seal is reported with
// the part that was still written for the segments before it.
func (w *Writer) Flush() (Part, error) {
	err := w.Seal()
	if len(w.pending) == 0 {
		return Part{}, err
	}
	part := Part{Name: fmt.Sprintf("%s/idx_%06d.idx", w.lane, w.partSeq), Segments: w.pending}
	w.idx = appendIndex(w.idx[:0], part.Segments)
	if ierr := dfs.WriteFile(w.fs, w.Path(part.Name), w.idx); ierr != nil {
		if err == nil {
			err = ierr
		}
		return Part{}, err
	}
	w.partSeq++
	w.pending = nil
	return part, err
}

// EncodeIndex serializes segment indexes in the GRFTIDX1 layout: the
// magic, a uvarint segment count, then per segment its length-prefixed
// name, a uvarint entry count and per entry the uvarint kind, uvarint
// step, zig-zag varint ID, uvarint offset and uvarint length.
func EncodeIndex(segs []SegmentIndex) []byte { return appendIndex(nil, segs) }

// appendIndex appends EncodeIndex(segs) to b.
func appendIndex(b []byte, segs []SegmentIndex) []byte {
	b = append(b, IdxMagic...)
	b = binary.AppendUvarint(b, uint64(len(segs)))
	for _, seg := range segs {
		b = binary.AppendUvarint(b, uint64(len(seg.Name)))
		b = append(b, seg.Name...)
		b = binary.AppendUvarint(b, uint64(len(seg.Entries)))
		for _, ent := range seg.Entries {
			b = binary.AppendUvarint(b, uint64(ent.Kind))
			b = binary.AppendUvarint(b, uint64(ent.Step))
			b = binary.AppendVarint(b, ent.ID)
			b = binary.AppendUvarint(b, uint64(ent.Offset))
			b = binary.AppendUvarint(b, uint64(ent.Length))
		}
	}
	return b
}

// DecodeIndex parses an index part (or an old whole-lane sidecar)
// produced by EncodeIndex. Counts are checked against the bytes that
// remain — a segment takes at least 2 and an entry at least 5 — before
// anything is allocated for them.
func DecodeIndex(raw []byte) ([]SegmentIndex, error) {
	if len(raw) < len(IdxMagic) || string(raw[:len(IdxMagic)]) != IdxMagic {
		return nil, ErrBadMagic
	}
	d := decoder{b: raw[len(IdxMagic):]}
	nSegs := d.count(2)
	if d.err != nil {
		return nil, d.err
	}
	segs := make([]SegmentIndex, 0, nSegs)
	for i := uint64(0); i < nSegs; i++ {
		seg := SegmentIndex{Name: d.str()}
		nEnts := d.count(5)
		if d.err != nil {
			return nil, d.err
		}
		seg.Entries = make([]Entry, 0, nEnts)
		for j := uint64(0); j < nEnts; j++ {
			kind, step, id := d.uvarint(), d.uvarint(), d.varint()
			off, ln := d.uvarint(), d.uvarint()
			if kind > math.MaxUint8 || step > math.MaxInt32 || off > math.MaxInt32 || ln > math.MaxInt32 {
				d.fail() // no segment is that large; keeps Offset+Length from wrapping
			}
			seg.Entries = append(seg.Entries, Entry{Kind: uint8(kind), Step: int(step), ID: id, Offset: int(off), Length: int(ln)})
		}
		if d.err != nil {
			return nil, d.err
		}
		segs = append(segs, seg)
	}
	return segs, d.err
}

// decoder is a minimal sticky-error varint reader matching the
// pregel.Decoder wire format.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at offset %d", ErrCorrupt, d.off)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return x
}

// count reads an element count and fails if that many elements of at
// least minBytes each cannot fit in what is left.
func (d *decoder) count(minBytes int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)-d.off)/uint64(minBytes) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}
