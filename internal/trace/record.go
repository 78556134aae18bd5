// Package trace defines the records Graft captures (vertex contexts,
// master contexts, per-superstep metadata), their binary encoding, and
// a store that lays them out as per-worker trace files in a
// dfs.FileSystem — the role HDFS trace files play for the Java Graft.
package trace

import (
	"fmt"
	"strings"

	"graft/internal/pregel"
)

// Reason is a bitmask of why a vertex was captured; one capture record
// can satisfy several of the paper's five DebugConfig categories at
// once.
type Reason uint32

const (
	// ReasonByID: the vertex was listed in DebugConfig.CaptureIDs.
	ReasonByID Reason = 1 << iota
	// ReasonRandom: the vertex was picked by random selection.
	ReasonRandom
	// ReasonNeighbor: the vertex is a neighbor of a by-ID or random
	// capture target.
	ReasonNeighbor
	// ReasonVertexConstraint: the vertex value violated the
	// DebugConfig vertex-value constraint.
	ReasonVertexConstraint
	// ReasonMessageConstraint: the vertex sent a message violating the
	// DebugConfig message-value constraint.
	ReasonMessageConstraint
	// ReasonException: the vertex's compute raised an exception
	// (panicked or returned an error).
	ReasonException
	// ReasonAllActive: DebugConfig.CaptureAllActive was set.
	ReasonAllActive
	// ReasonIncomingConstraint: the vertex received a message that
	// violated the DebugConfig incoming-message constraint (the
	// destination-value-dependent constraints the paper lists as
	// future work in §7).
	ReasonIncomingConstraint
	// ReasonNondeterministic is not a reason to capture but a verdict on
	// one: the capture was triggered after the vertex computed, its
	// outgoing messages come from a recording re-run of that compute,
	// and the re-run did not end as the first run did (value, halt vote,
	// number of sends, failure). The messages recorded may not be the
	// ones the job sent.
	ReasonNondeterministic
)

var reasonNames = []struct {
	r    Reason
	name string
}{
	{ReasonByID, "by-id"},
	{ReasonRandom, "random"},
	{ReasonNeighbor, "neighbor"},
	{ReasonVertexConstraint, "vertex-constraint"},
	{ReasonMessageConstraint, "message-constraint"},
	{ReasonException, "exception"},
	{ReasonAllActive, "all-active"},
	{ReasonIncomingConstraint, "incoming-constraint"},
	{ReasonNondeterministic, "nondeterministic"},
}

// Has reports whether all bits of x are set.
func (r Reason) Has(x Reason) bool { return r&x == x }

func (r Reason) String() string {
	var parts []string
	for _, rn := range reasonNames {
		if r.Has(rn.r) {
			parts = append(parts, rn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ViolationKind distinguishes the two constraint categories.
type ViolationKind uint8

const (
	// VertexValueViolation: the vertex value failed the constraint.
	VertexValueViolation ViolationKind = iota
	// MessageViolation: a sent message value failed the constraint.
	MessageViolation
	// IncomingMessageViolation: a received message failed the
	// destination-value-dependent constraint (§7 extension). The
	// violation is recorded on the receiver; SrcID is unknown (-1)
	// because messages do not carry their sender.
	IncomingMessageViolation
)

func (k ViolationKind) String() string {
	switch k {
	case VertexValueViolation:
		return "vertex-value"
	case MessageViolation:
		return "message"
	case IncomingMessageViolation:
		return "incoming-message"
	}
	return fmt.Sprintf("ViolationKind(%d)", uint8(k))
}

// Violation records one constraint failure. For message violations
// SrcID is the sender (the captured vertex) and DstID the recipient;
// for vertex-value violations both are the vertex itself.
type Violation struct {
	Kind  ViolationKind
	SrcID pregel.VertexID
	DstID pregel.VertexID
	// Value is the offending message or vertex value.
	Value pregel.Value
}

// ExceptionInfo records a panic or error from user compute code: the
// paper's "error message and stack trace of the exception".
type ExceptionInfo struct {
	Message string
	Stack   string
}

// OutMsg is one message sent by a captured vertex.
type OutMsg struct {
	To    pregel.VertexID
	Value pregel.Value
}

// VertexCapture is the full context of one vertex.compute call: the
// five pieces of API data (ID, edges, incoming messages, aggregators
// via the superstep meta, global data via the superstep meta) plus the
// messages the vertex sent, its value before and after, and any
// violations or exception — everything the Context Reproducer needs.
type VertexCapture struct {
	Superstep int
	Worker    int
	ID        pregel.VertexID
	Reasons   Reason

	ValueBefore pregel.Value
	ValueAfter  pregel.Value
	// Edges is the vertex's out-edge list. EdgesPreCompute reports
	// whether it was snapshotted before compute ran (true for
	// statically selected vertices) or after (constraint- and
	// exception-triggered captures, where the pre-state was not known
	// to be needed); the two differ only for computations that mutate
	// their own topology.
	Edges           []pregel.Edge
	EdgesPreCompute bool

	Incoming []pregel.Value
	Outgoing []OutMsg

	HaltedAfter bool
	Violations  []Violation
	Exception   *ExceptionInfo
}

// VertexFrame is a VertexCapture on its way to a RecordSink with the
// pieces that compute or the message plane may change afterwards — the
// value before, the edges, each message sent — already encoded, each at
// the moment a clone would have been taken, into buffers the capturing
// worker reuses from one vertex to the next. ValueAfter, Incoming and
// Violations are live values the sink encodes before it returns. A
// frame never reaches a reader: it is stored as, and read back as, the
// VertexCapture record it describes.
type VertexFrame struct {
	Superstep int
	Worker    int
	ID        pregel.VertexID
	Reasons   Reason

	// ValueBefore is pregel.EncodeTyped of the pre-compute value; empty
	// when none was snapshotted (a nil VertexCapture.ValueBefore).
	ValueBefore []byte
	ValueAfter  pregel.Value
	// Edges is PutEdges of the edge list; see VertexCapture for
	// EdgesPreCompute.
	Edges           []byte
	EdgesPreCompute bool

	Incoming []pregel.Value
	// Outgoing is NumOutgoing messages, each written by PutOutMsg when
	// it was sent.
	Outgoing    []byte
	NumOutgoing int

	HaltedAfter bool
	Violations  []Violation
	Exception   *ExceptionInfo
}

// SubgraphCapture summarizes one ComputeSubgraph call over a captured
// component in subgraph mode: its membership, how many internal
// iterations the sequential algorithm ran, and a digest of the member
// values after compute. The members' full contexts are captured as
// ordinary VertexCapture records alongside it, so a subgraph step
// stays single-vertex debuggable; this record carries what those
// cannot — the component structure and the collapsed work.
type SubgraphCapture struct {
	Superstep int
	Worker    int
	// ID is the subgraph's identifier: its minimum member vertex ID.
	ID      pregel.VertexID
	Members []pregel.VertexID
	// Iterations is the internal-iteration count the computation
	// reported through SubgraphContext.AddIterations — the supersteps
	// the subgraph mode collapsed away.
	Iterations   int64
	MessagesSent int64
	HaltedAfter  bool
	// Digest is hex SHA-256 over the sorted (member ID, value-after)
	// pairs: the per-component anchor for vertex-mode equivalence.
	Digest string
}

// AggSet records one master SetAggregated call.
type AggSet struct {
	Name  string
	Value pregel.Value
}

// MasterCapture is the context of one master.compute call: aggregator
// values before and after, the explicit Set calls, and whether the
// master halted the computation.
type MasterCapture struct {
	Superstep        int
	NumVertices      int64
	NumEdges         int64
	AggregatedBefore map[string]pregel.Value
	AggregatedAfter  map[string]pregel.Value
	Sets             []AggSet
	Halted           bool
	Exception        *ExceptionInfo
}

// SuperstepMeta is the global data shared by every vertex in one
// superstep: totals and the aggregator values broadcast after the
// master ran. Vertex captures reference it instead of repeating it.
type SuperstepMeta struct {
	Superstep   int
	NumVertices int64
	NumEdges    int64
	Aggregated  map[string]pregel.Value
}

// JobMeta is the per-job manifest, written when instrumentation
// attaches.
type JobMeta struct {
	JobID       string `json:"job_id"`
	Algorithm   string `json:"algorithm"`
	Description string `json:"description,omitempty"`
	NumWorkers  int    `json:"num_workers"`
	NumVertices int64  `json:"num_vertices"`
	NumEdges    int64  `json:"num_edges"`
	// ComputeMode records how the job was dispatched: "subgraph" for
	// subgraph-centric jobs, empty (or "vertex") for vertex-centric
	// ones. `graft repro` keys its codegen off this.
	ComputeMode string `json:"compute_mode,omitempty"`
	// Seed and Supersteps are the arguments a packaged algorithm was
	// built with (algorithms.ByName), recorded so the GUI reproduces and
	// replay-checks the job with the same ones. Nothing at run time
	// reads them. A run that says records both; Supersteps is then at
	// least 1, so zero there means it did not say and Seed 0 is a seed.
	Seed       int64 `json:"seed,omitempty"`
	Supersteps int   `json:"supersteps,omitempty"`
	// Format identifies the on-disk trace layout: FormatSegments for
	// jobs written through Store.NewSink, empty in the manifests of
	// whole-file traces from older builds (which OpenReader rejects).
	Format string `json:"format,omitempty"`
}

// JobResult is written when the job finishes (or fails).
type JobResult struct {
	Supersteps      int    `json:"supersteps"`
	Reason          string `json:"reason"`
	Captures        int64  `json:"captures"`
	CaptureLimitHit bool   `json:"capture_limit_hit,omitempty"`
	Error           string `json:"error,omitempty"`
	RuntimeMillis   int64  `json:"runtime_millis"`
	// DroppedRecords counts trace records lost to persistent storage
	// failure; the job continued without them (degraded capture).
	DroppedRecords int64 `json:"dropped_records,omitempty"`
}
