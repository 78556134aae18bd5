package trace

import (
	"encoding/binary"
	"fmt"

	"graft/internal/pregel"
)

// Segmented trace layout. Each lane (one per worker, one for the
// master) is a directory of segment files and index parts:
//
//	<root>/<jobID>/worker_NN/seg_000000.seg
//	<root>/<jobID>/worker_NN/seg_000001.seg
//	<root>/<jobID>/worker_NN/idx_000000.idx
//	<root>/<jobID>/master/seg_000000.seg
//	<root>/<jobID>/master/idx_000000.idx
//
// A segment file is the magic "GRFTSEG1" followed by the same framed
// records a Writer stream holds (uvarint length ++ payload), so a
// segment remains scannable without its index. Segments are sealed —
// committed whole through the atomic-on-close file system — at the
// configured size and at every superstep barrier, which is what makes
// crash and chaos runs replayable: everything up to the last completed
// barrier is durable.
//
// An index part is the magic "GRFTIDX1" followed by, per segment it
// names, the file name and one (kind, superstep, vertexID, offset,
// length) entry per record, where offset/length locate the record's
// payload inside the segment file. Each barrier appends one part per
// lane naming only the segments sealed since the lane's previous part,
// after those segments are committed, so a barrier writes what the
// superstep captured and nothing it wrote before. A reader loads every
// "*.idx" of the job in name order and scans the segments none of them
// names (a crash, or a failed part write, between a segment's commit
// and its part's). Traces written before parts have one
// "<root>/<jobID>/<lane>.idx" per lane, rewritten whole at each
// barrier: the same bytes under another name, sorting in the same lane
// order, so the reader opens them unchanged.
const (
	segMagic = "GRFTSEG1"
	idxMagic = "GRFTIDX1"
)

// indexEntry locates one record's payload inside a segment file, under
// the record's coordinates: its kind, superstep, and vertex or subgraph
// ID (0 for master records).
type indexEntry struct {
	Kind   uint8
	Step   int
	ID     int64
	Offset int // payload start within the segment file
	Length int // payload length
}

// segmentIndex is the index of one sealed segment: its file name,
// relative to the job directory, and its entries in record order.
type segmentIndex struct {
	Name    string
	Entries []indexEntry
}

// entryFor builds a record's index coordinates from its payload and
// concrete type.
func entryFor(rec any, payload []byte) indexEntry {
	ent := indexEntry{Kind: payload[0], Length: len(payload)}
	switch r := rec.(type) {
	case *VertexFrame:
		ent.Step, ent.ID = r.Superstep, int64(r.ID)
	case *VertexCapture:
		ent.Step, ent.ID = r.Superstep, int64(r.ID)
	case *SubgraphCapture:
		ent.Step, ent.ID = r.Superstep, int64(r.ID)
	case *MasterCapture:
		ent.Step = r.Superstep
	case *SuperstepMeta:
		ent.Step = r.Superstep
	}
	return ent
}

// appendIndex appends the GRFTIDX1 encoding of segs to b: the magic, a
// uvarint segment count, then per segment its length-prefixed name, a
// uvarint entry count and per entry the uvarint kind, uvarint step,
// zig-zag varint ID, uvarint offset and uvarint length.
func appendIndex(b []byte, segs []segmentIndex) []byte {
	b = append(b, idxMagic...)
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

// walkIndex parses an index part, or a sidecar of the older
// one-file-per-lane layout, calling segment with each segment's name and
// entry count, then entry with each entry, until the part proves corrupt;
// bytes after its last segment are corrupt too. A segment takes at least
// 2 bytes and an entry at least 5, which bounds each count.
func walkIndex(raw []byte, segment func(name string, entries int), entry func(indexEntry)) error {
	if len(raw) < len(idxMagic) || string(raw[:len(idxMagic)]) != idxMagic {
		return ErrBadMagic
	}
	d := pregel.NewDecoder(raw[len(idxMagic):])
	for range d.Count(2) {
		name, n := d.String(), d.Count(5)
		if d.Err() != nil {
			break
		}
		segment(name, n)
		for range n {
			// No segment holds 2 GiB, and the 31-bit bound keeps
			// Offset+Length from wrapping.
			ent := indexEntry{
				Kind: uint8(d.UvarintBits(8)), Step: int(d.UvarintBits(31)), ID: d.Varint(),
				Offset: int(d.UvarintBits(31)), Length: int(d.UvarintBits(31)),
			}
			if d.Err() != nil {
				return d.Err()
			}
			entry(ent)
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n > 0 {
		return fmt.Errorf("%w: %d byte(s) after the last segment", pregel.ErrCorrupt, n)
	}
	return nil
}

// scanSegmentEntries walks a segment's frames and synthesizes index
// entries, decoding only each record's envelope (kind, superstep,
// vertex ID).
func scanSegmentEntries(data []byte) ([]indexEntry, error) {
	if !hasSegMagic(data) {
		return nil, ErrBadMagic
	}
	var ents []indexEntry
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
		ent := indexEntry{
			Kind:   uint8(pd.UvarintBits(8)),
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

func hasSegMagic(b []byte) bool {
	return len(b) >= len(segMagic) && string(b[:len(segMagic)]) == segMagic
}
