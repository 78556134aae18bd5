package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"graft/internal/pregel"
)

// Trace files are a magic header followed by framed records:
// uvarint(length) ++ payload, where the payload's first byte is the
// record kind.
const fileMagic = "GRFTTRC1"

type recordKind uint8

const (
	kindSuperstepMeta   recordKind = 1
	kindVertexCapture   recordKind = 2
	kindMasterCapture   recordKind = 3
	kindSubgraphCapture recordKind = 4
)

// ErrBadMagic is returned when a trace file does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad file magic")

// Writer writes framed records to one stream, each record encoded from
// its object form. No job is written through it any more (Store.NewSink
// writes segments); it is the reference encoder the capture path's
// encode-at-source frames are compared against byte for byte. Not safe
// for concurrent use.
type Writer struct {
	wc  io.WriteCloser
	bw  *bufio.Writer
	e   *pregel.Encoder
	hdr *pregel.Encoder
}

// NewWriter wraps wc, writing the file header immediately.
func NewWriter(wc io.WriteCloser) (*Writer, error) {
	w := &Writer{wc: wc, bw: bufio.NewWriter(wc), e: pregel.NewEncoder(), hdr: pregel.NewEncoder()}
	if _, err := w.bw.WriteString(fileMagic); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) frame() error {
	w.hdr.Reset()
	w.hdr.PutUvarint(uint64(w.e.Len()))
	if _, err := w.bw.Write(w.hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.bw.Write(w.e.Bytes())
	return err
}

// WriteVertexCapture appends one vertex capture record.
func (w *Writer) WriteVertexCapture(c *VertexCapture) error {
	w.e.Reset()
	encodeVertexCapturePayload(w.e, c)
	return w.frame()
}

// WriteVertexFrame appends one vertex capture record from its
// pre-encoded form.
func (w *Writer) WriteVertexFrame(f *VertexFrame) error {
	w.e.Reset()
	encodeVertexFramePayload(w.e, f)
	return w.frame()
}

// WriteMasterCapture appends one master capture record.
func (w *Writer) WriteMasterCapture(c *MasterCapture) error {
	w.e.Reset()
	encodeMasterCapturePayload(w.e, c)
	return w.frame()
}

// WriteSuperstepMeta appends one superstep metadata record.
func (w *Writer) WriteSuperstepMeta(m *SuperstepMeta) error {
	w.e.Reset()
	encodeSuperstepMetaPayload(w.e, m)
	return w.frame()
}

// WriteSubgraphCapture appends one subgraph capture record.
func (w *Writer) WriteSubgraphCapture(c *SubgraphCapture) error {
	w.e.Reset()
	encodeSubgraphCapturePayload(w.e, c)
	return w.frame()
}

// encodeRecordPayload appends the framed payload of rec (kind byte
// first) to e. The payload bytes are the same in a Writer's stream and
// in a segment file; only the container around them differs.
func encodeRecordPayload(e *pregel.Encoder, rec any) error {
	switch r := rec.(type) {
	case *VertexFrame:
		encodeVertexFramePayload(e, r)
	case *VertexCapture:
		encodeVertexCapturePayload(e, r)
	case *MasterCapture:
		encodeMasterCapturePayload(e, r)
	case *SuperstepMeta:
		encodeSuperstepMetaPayload(e, r)
	case *SubgraphCapture:
		encodeSubgraphCapturePayload(e, r)
	default:
		return fmt.Errorf("trace: cannot encode record type %T", rec)
	}
	return nil
}

// encodeVertexCapturePayload is the definition of a vertex capture
// record's layout. encodeVertexFramePayload writes the same bytes from
// pieces encoded earlier by the same part encoders.
func encodeVertexCapturePayload(e *pregel.Encoder, c *VertexCapture) {
	putCaptureHead(e, c.Superstep, c.Worker, c.ID, c.Reasons)
	pregel.EncodeTyped(e, c.ValueBefore)
	pregel.EncodeTyped(e, c.ValueAfter)
	e.PutBool(c.EdgesPreCompute)
	PutEdges(e, c.Edges)
	putCaptureIncoming(e, c.Incoming)
	e.PutUvarint(uint64(len(c.Outgoing)))
	for _, m := range c.Outgoing {
		PutOutMsg(e, m.To, m.Value)
	}
	putCaptureTail(e, c.HaltedAfter, c.Violations, c.Exception)
}

func encodeVertexFramePayload(e *pregel.Encoder, f *VertexFrame) {
	putCaptureHead(e, f.Superstep, f.Worker, f.ID, f.Reasons)
	if len(f.ValueBefore) == 0 {
		pregel.EncodeTyped(e, nil)
	} else {
		e.PutRaw(f.ValueBefore)
	}
	pregel.EncodeTyped(e, f.ValueAfter)
	e.PutBool(f.EdgesPreCompute)
	e.PutRaw(f.Edges)
	putCaptureIncoming(e, f.Incoming)
	e.PutUvarint(uint64(f.NumOutgoing))
	e.PutRaw(f.Outgoing)
	putCaptureTail(e, f.HaltedAfter, f.Violations, f.Exception)
}

// PutEdges appends the edge list of a vertex capture record: the count,
// then each edge's target and typed value. It is VertexFrame.Edges.
func PutEdges(e *pregel.Encoder, edges []pregel.Edge) {
	e.PutUvarint(uint64(len(edges)))
	for _, ed := range edges {
		e.PutVarint(int64(ed.Target))
		pregel.EncodeTyped(e, ed.Value)
	}
}

// PutOutMsg appends one outgoing message of a vertex capture record:
// VertexFrame.Outgoing is NumOutgoing of these.
func PutOutMsg(e *pregel.Encoder, to pregel.VertexID, v pregel.Value) {
	e.PutVarint(int64(to))
	pregel.EncodeTyped(e, v)
}

func putCaptureHead(e *pregel.Encoder, superstep, worker int, id pregel.VertexID, reasons Reason) {
	e.PutUvarint(uint64(kindVertexCapture))
	e.PutUvarint(uint64(superstep))
	e.PutUvarint(uint64(worker))
	e.PutVarint(int64(id))
	e.PutUvarint(uint64(reasons))
}

func putCaptureIncoming(e *pregel.Encoder, msgs []pregel.Value) {
	e.PutUvarint(uint64(len(msgs)))
	for _, m := range msgs {
		pregel.EncodeTyped(e, m)
	}
}

func putCaptureTail(e *pregel.Encoder, halted bool, violations []Violation, exc *ExceptionInfo) {
	e.PutBool(halted)
	e.PutUvarint(uint64(len(violations)))
	for _, v := range violations {
		e.PutUvarint(uint64(v.Kind))
		e.PutVarint(int64(v.SrcID))
		e.PutVarint(int64(v.DstID))
		pregel.EncodeTyped(e, v.Value)
	}
	encodeException(e, exc)
}

func encodeMasterCapturePayload(e *pregel.Encoder, c *MasterCapture) {
	e.PutUvarint(uint64(kindMasterCapture))
	e.PutUvarint(uint64(c.Superstep))
	e.PutVarint(c.NumVertices)
	e.PutVarint(c.NumEdges)
	encodeAggMap(e, c.AggregatedBefore)
	encodeAggMap(e, c.AggregatedAfter)
	e.PutUvarint(uint64(len(c.Sets)))
	for _, s := range c.Sets {
		e.PutString(s.Name)
		pregel.EncodeTyped(e, s.Value)
	}
	e.PutBool(c.Halted)
	encodeException(e, c.Exception)
}

// encodeSubgraphCapturePayload shares VertexCapture's envelope prefix
// (kind, superstep, worker, id) so index scans extract coordinates the
// same way for both capture kinds.
func encodeSubgraphCapturePayload(e *pregel.Encoder, c *SubgraphCapture) {
	e.PutUvarint(uint64(kindSubgraphCapture))
	e.PutUvarint(uint64(c.Superstep))
	e.PutUvarint(uint64(c.Worker))
	e.PutVarint(int64(c.ID))
	e.PutUvarint(uint64(len(c.Members)))
	for _, id := range c.Members {
		e.PutVarint(int64(id))
	}
	e.PutVarint(c.Iterations)
	e.PutVarint(c.MessagesSent)
	e.PutBool(c.HaltedAfter)
	e.PutString(c.Digest)
}

func encodeSuperstepMetaPayload(e *pregel.Encoder, m *SuperstepMeta) {
	e.PutUvarint(uint64(kindSuperstepMeta))
	e.PutUvarint(uint64(m.Superstep))
	e.PutVarint(m.NumVertices)
	e.PutVarint(m.NumEdges)
	encodeAggMap(e, m.Aggregated)
}

// decodeRecordPayload decodes one framed payload (kind byte first)
// into a *VertexCapture, *MasterCapture or *SuperstepMeta.
func decodeRecordPayload(payload []byte) (any, error) {
	pd := pregel.NewDecoder(payload)
	kind := recordKind(pd.Uvarint())
	switch kind {
	case kindVertexCapture:
		return decodeVertexCapture(pd)
	case kindMasterCapture:
		return decodeMasterCapture(pd)
	case kindSuperstepMeta:
		return decodeSuperstepMeta(pd)
	case kindSubgraphCapture:
		return decodeSubgraphCapture(pd)
	}
	if pd.Err() != nil {
		return nil, pd.Err()
	}
	return nil, fmt.Errorf("trace: unknown record kind %d", kind)
}

// Close flushes buffered records and closes the file, committing it.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.wc.Close()
		return err
	}
	return w.wc.Close()
}

func encodeException(e *pregel.Encoder, ex *ExceptionInfo) {
	if ex == nil {
		e.PutBool(false)
		return
	}
	e.PutBool(true)
	e.PutString(ex.Message)
	e.PutString(ex.Stack)
}

func decodeException(d *pregel.Decoder) (*ExceptionInfo, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	ex := &ExceptionInfo{Message: d.String(), Stack: d.String()}
	return ex, d.Err()
}

func encodeAggMap(e *pregel.Encoder, m map[string]pregel.Value) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic bytes
	e.PutUvarint(uint64(len(names)))
	for _, name := range names {
		e.PutString(name)
		pregel.EncodeTyped(e, m[name])
	}
}

func decodeAggMap(d *pregel.Decoder) (map[string]pregel.Value, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	m := make(map[string]pregel.Value, n)
	for i := uint64(0); i < n; i++ {
		name := d.String()
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		m[name] = v
	}
	return m, d.Err()
}

// RecordReader iterates the framed records of one Writer stream: the
// reference decoder beside the reference encoder. Traces are read with
// Reader (Store.OpenReader).
type RecordReader struct {
	data []byte
	off  int
}

// NewRecordReader validates the header of data and positions at the
// first record.
func NewRecordReader(data []byte) (*RecordReader, error) {
	if len(data) < len(fileMagic) || string(data[:len(fileMagic)]) != fileMagic {
		return nil, ErrBadMagic
	}
	return &RecordReader{data: data, off: len(fileMagic)}, nil
}

// Next returns the next record: a *VertexCapture, *MasterCapture or
// *SuperstepMeta. It returns io.EOF after the last record.
func (r *RecordReader) Next() (any, error) {
	if r.off >= len(r.data) {
		return nil, io.EOF
	}
	d := pregel.NewDecoder(r.data[r.off:])
	payload := d.Bytes()
	if d.Err() != nil {
		return nil, d.Err()
	}
	r.off = len(r.data) - d.Remaining()
	return decodeRecordPayload(payload)
}

func decodeVertexCapture(d *pregel.Decoder) (*VertexCapture, error) {
	c := &VertexCapture{}
	c.Superstep = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.ID = pregel.VertexID(d.Varint())
	c.Reasons = Reason(d.Uvarint())
	var err error
	if c.ValueBefore, err = pregel.DecodeTyped(d); err != nil {
		return nil, err
	}
	if c.ValueAfter, err = pregel.DecodeTyped(d); err != nil {
		return nil, err
	}
	c.EdgesPreCompute = d.Bool()
	nEdges := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Edges = make([]pregel.Edge, 0, nEdges)
	for i := uint64(0); i < nEdges; i++ {
		target := pregel.VertexID(d.Varint())
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Edges = append(c.Edges, pregel.Edge{Target: target, Value: v})
	}
	nIn := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Incoming = make([]pregel.Value, 0, nIn)
	for i := uint64(0); i < nIn; i++ {
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Incoming = append(c.Incoming, v)
	}
	nOut := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Outgoing = make([]OutMsg, 0, nOut)
	for i := uint64(0); i < nOut; i++ {
		to := pregel.VertexID(d.Varint())
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Outgoing = append(c.Outgoing, OutMsg{To: to, Value: v})
	}
	c.HaltedAfter = d.Bool()
	nViol := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Violations = make([]Violation, 0, nViol)
	for i := uint64(0); i < nViol; i++ {
		viol := Violation{
			Kind:  ViolationKind(d.Uvarint()),
			SrcID: pregel.VertexID(d.Varint()),
			DstID: pregel.VertexID(d.Varint()),
		}
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		viol.Value = v
		c.Violations = append(c.Violations, viol)
	}
	if c.Exception, err = decodeException(d); err != nil {
		return nil, err
	}
	return c, d.Err()
}

func decodeMasterCapture(d *pregel.Decoder) (*MasterCapture, error) {
	c := &MasterCapture{}
	c.Superstep = int(d.Uvarint())
	c.NumVertices = d.Varint()
	c.NumEdges = d.Varint()
	var err error
	if c.AggregatedBefore, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	if c.AggregatedAfter, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	nSets := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Sets = make([]AggSet, 0, nSets)
	for i := uint64(0); i < nSets; i++ {
		name := d.String()
		v, err := pregel.DecodeTyped(d)
		if err != nil {
			return nil, err
		}
		c.Sets = append(c.Sets, AggSet{Name: name, Value: v})
	}
	c.Halted = d.Bool()
	if c.Exception, err = decodeException(d); err != nil {
		return nil, err
	}
	return c, d.Err()
}

func decodeSubgraphCapture(d *pregel.Decoder) (*SubgraphCapture, error) {
	c := &SubgraphCapture{}
	c.Superstep = int(d.Uvarint())
	c.Worker = int(d.Uvarint())
	c.ID = pregel.VertexID(d.Varint())
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	c.Members = make([]pregel.VertexID, 0, n)
	for i := uint64(0); i < n; i++ {
		c.Members = append(c.Members, pregel.VertexID(d.Varint()))
	}
	c.Iterations = d.Varint()
	c.MessagesSent = d.Varint()
	c.HaltedAfter = d.Bool()
	c.Digest = d.String()
	return c, d.Err()
}

func decodeSuperstepMeta(d *pregel.Decoder) (*SuperstepMeta, error) {
	m := &SuperstepMeta{}
	m.Superstep = int(d.Uvarint())
	m.NumVertices = d.Varint()
	m.NumEdges = d.Varint()
	var err error
	if m.Aggregated, err = decodeAggMap(d); err != nil {
		return nil, err
	}
	return m, d.Err()
}
