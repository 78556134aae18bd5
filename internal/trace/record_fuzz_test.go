package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/segio"
)

// sinkPayloads writes one record of every kind through a Sink and
// returns the payloads the segments hold, as a reader would slice them.
func sinkPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	fs := dfs.NewMemFS()
	sink, err := NewStore(fs, "t").NewSink(JobMeta{JobID: "job", NumWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	w, m := sink.WorkerSink(0), sink.MasterSink()
	for _, err := range []error{
		w.WriteVertexCapture(sampleVertexCapture()),
		w.WriteVertexCapture(&VertexCapture{Superstep: 1, ID: -7}),
		w.WriteSubgraphCapture(sampleSubgraphCapture()),
		m.WriteMasterCapture(sampleMasterCapture()),
		m.WriteSuperstepMeta(sampleMeta()),
		sink.Finish(JobResult{}),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	names, err := fs.List("t/job/")
	if err != nil {
		tb.Fatal(err)
	}
	var payloads [][]byte
	for _, n := range names {
		if !strings.HasSuffix(n, ".seg") {
			continue
		}
		raw, err := dfs.ReadFile(fs, n)
		if err != nil {
			tb.Fatal(err)
		}
		d := pregel.NewDecoder(raw[len(segio.SegMagic):])
		for d.Remaining() > 0 {
			payloads = append(payloads, d.Bytes())
		}
		if err := d.Err(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(payloads) != 5 {
		tb.Fatalf("%d payloads in the segments, want 5", len(payloads))
	}
	return payloads
}

// lyingPayloads are records whose first element count promises far
// more elements than the bytes that follow can hold: a vertex capture's
// edges, a subgraph capture's members, a master capture's aggregators
// and a superstep meta's.
func lyingPayloads() map[string][]byte {
	const lie = 1 << 62
	head := func(kind recordKind, ints ...uint64) *pregel.Encoder {
		e := pregel.NewEncoder()
		e.PutUvarint(uint64(kind))
		for _, x := range ints {
			e.PutUvarint(x)
		}
		return e
	}
	vertex := head(kindVertexCapture, 1, 0, 2, 0) // superstep, worker, id, reasons
	pregel.EncodeTyped(vertex, nil)
	pregel.EncodeTyped(vertex, nil)
	vertex.PutBool(false)
	vertex.PutUvarint(lie)
	return map[string][]byte{
		"edges":              vertex.Bytes(),
		"members":            head(kindSubgraphCapture, 1, 0, 2, lie).Bytes(),
		"master aggregators": head(kindMasterCapture, 1, 2, 2, lie).Bytes(),
		"meta aggregators":   head(kindSuperstepMeta, 1, 2, 2, lie).Bytes(),
	}
}

// TestDecodeRecordLyingCount: a count the payload cannot back is
// corrupt data, reported as such, and allocates nothing for it.
func TestDecodeRecordLyingCount(t *testing.T) {
	for name, raw := range lyingPayloads() {
		if rec, err := decodeRecordPayload(raw); !errors.Is(err, pregel.ErrCorrupt) {
			t.Errorf("%s: decoded %+v, err = %v, want ErrCorrupt", name, rec, err)
		}
	}
}

// recordElems counts the elements a decoded record holds room for:
// slice capacities and map sizes, every one of them sized by a count
// read from the payload.
func recordElems(rec any) int {
	switch r := rec.(type) {
	case *VertexCapture:
		return cap(r.Edges) + cap(r.Incoming) + cap(r.Outgoing) + cap(r.Violations)
	case *MasterCapture:
		return len(r.AggregatedBefore) + len(r.AggregatedAfter) + cap(r.Sets)
	case *SuperstepMeta:
		return len(r.Aggregated)
	case *SubgraphCapture:
		return cap(r.Members)
	}
	return 0
}

func encodePayload(t *testing.T, rec any) []byte {
	t.Helper()
	e := pregel.NewEncoder()
	if err := encodeRecordPayload(e, rec); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), e.Bytes()...)
}

// FuzzDecodeRecord: decoding a hostile record payload never panics and
// never sizes an allocation by a count the input cannot back.
// Re-encoding a record it accepts reaches a fixed point in one step:
// the re-encoding decodes, and encodes to the same bytes again. (The
// decoder accepts some non-canonical inputs — a non-minimal varint, a
// bool byte of 2 — so the first re-encoding may differ from the input.)
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range sinkPayloads(f) {
		f.Add(p)
	}
	for _, p := range lyingPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := decodeRecordPayload(raw)
		if err != nil {
			return
		}
		if n := recordElems(rec); n > len(raw) {
			t.Fatalf("room for %d elements from %d bytes", n, len(raw))
		}
		once := encodePayload(t, rec)
		again, err := decodeRecordPayload(once)
		if err != nil {
			t.Fatalf("a re-encoded %T does not decode: %v", rec, err)
		}
		if twice := encodePayload(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding a %T is not stable: %d bytes, then %d", rec, len(once), len(twice))
		}
	})
}
