package trace

import (
	"bytes"

	"graft/internal/pregel"
	"graft/internal/segio"
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
//
// The container mechanics — framing, sealing, index encoding — live in
// the segio package (a leaf apart from dfs); this file binds them to
// trace record types. An index
// entry's coordinates are (record kind, superstep, vertex or subgraph
// ID — 0 for master records).
const segMagic = segio.SegMagic

// entryFor builds a record's index coordinates from its payload and
// concrete type.
func entryFor(rec any, payload []byte) segio.Entry {
	ent := segio.Entry{Kind: payload[0], Length: len(payload)}
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

// encodeFrame appends rec's frame (uvarint length ++ payload) to buf,
// using e and hdr as scratch, and returns the record's index entry
// with Offset relative to buf's start. On an encode failure buf is
// left untouched.
func encodeFrame(e, hdr *pregel.Encoder, buf *bytes.Buffer, rec any) (segio.Entry, error) {
	e.Reset()
	if err := encodeRecordPayload(e, rec); err != nil {
		return segio.Entry{}, err
	}
	payload := e.Bytes()
	hdr.Reset()
	hdr.PutUvarint(uint64(len(payload)))
	ent := entryFor(rec, payload)
	ent.Offset = buf.Len() + hdr.Len()
	buf.Write(hdr.Bytes())
	buf.Write(payload)
	return ent, nil
}
