// Package proto defines the adskip wire protocol: the frame format and
// the request/response message shapes spoken between internal/server and
// internal/client. It is standard-library only, but for the cost record
// (obs.Cost) a result's stats decode into, and deliberately tiny — the
// protocol is a transport for SQL text and JSON results, not an RPC
// framework.
//
// # Framing
//
// Every message is one frame: a 4-byte big-endian unsigned length
// followed by that many bytes of JSON payload. The length covers the
// payload only. Both sides enforce a maximum frame size (server default
// 4 MiB); an over-limit length is a protocol error and the connection is
// torn down, so a corrupt or malicious peer cannot make the other side
// allocate unbounded memory.
//
// # Conversation
//
// The protocol is strict request/response: the client sends one request
// frame and reads exactly one response frame before sending the next.
// There is no pipelining. Closing the connection cancels whatever
// request is in flight on the server.
//
// # Requests
//
//	{"op":"query","sql":"SELECT ..."}   execute SQL, response carries a result
//	{"op":"ping"}                       liveness probe
//	{"op":"catalog"}                    list tables (sorted)
//	{"op":"insert","table":"t","rows":[[...]]}  append rows, response carries "inserted"
//
// Any request may additionally carry "trace" (a client-generated trace
// ID the server tags the query's trace with) and "timing" (true to
// request a server-side latency breakdown on the response). Both are
// optional: old clients omit them, old servers ignore them.
//
// # Responses
//
// Every response has "ok". Failures carry "error" (human-readable) and
// "error_kind" (stable machine tag, see ErrKind*). Successes carry the
// op-specific payload: "result" (a wire-encoded engine.Result, see
// engine.Result.MarshalJSON), "inserted", or "tables" — plus "timing" (a
// Timing breakdown) when the request asked for one.
package proto

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"adskip/internal/obs"
)

// Operations.
const (
	OpQuery   = "query"
	OpPing    = "ping"
	OpCatalog = "catalog"
	// OpInsert appends rows to a table: {"op":"insert","table":"t",
	// "rows":[[1,2.5,"x"],...]}. Cells are JSON scalars matched to the
	// table schema positionally (null for NULL). The response's "inserted"
	// carries the appended row count; on a durable server the response is
	// only sent after the rows are fsynced.
	OpInsert = "insert"
)

// Stable machine-readable error kinds carried in Response.ErrKind, so
// clients can classify failures without string matching.
const (
	ErrKindSyntax   = "syntax"   // SQL failed to parse or plan
	ErrKindCanceled = "canceled" // query canceled (context/connection)
	ErrKindBudget   = "budget"   // query exceeded a resource limit
	ErrKindNoTable  = "no_table" // unknown table
	ErrKindBadOp    = "bad_op"   // unknown request op
	ErrKindInternal = "internal" // anything else
	ErrKindShutdown = "shutdown" // server is draining
	// ErrKindUnavailable means the server is alive but refusing query
	// traffic (overload). Retryable: back off and try again, or fail
	// over. internal/server never sends it; it stays in the contract so
	// clients retry any server that does.
	ErrKindUnavailable = "unavailable"
	// ErrKindRecovering means the server is alive but still replaying its
	// write-ahead log; queries and mutations are refused until the store
	// is consistent. Retryable: recovery completes on its own.
	ErrKindRecovering = "recovering"
	// ErrKindBadInsert means an insert payload did not match the table
	// schema (arity, type, or unparsable cell). Not retryable.
	ErrKindBadInsert = "bad_insert"
)

// MaxFrameDefault is the default maximum frame size (4 MiB): generous for
// result sets, small enough that a hostile length prefix cannot cause a
// damaging allocation.
const MaxFrameDefault = 4 << 20

// Request is one client request frame. writeRequest encodes it by hand: a
// field added here must be added there too, and
// TestWriteRequestMatchesJSONMarshal fails until it is.
//
// TraceID and WantTiming are optional observability fields added after
// the first protocol release. Both sides tolerate their absence — an old
// client's frames simply carry neither, and an old server ignores them
// (unknown JSON fields are dropped on decode) — so mixed-version
// deployments keep working.
type Request struct {
	Op  string `json:"op"`
	SQL string `json:"sql,omitempty"`
	// TraceID is an optional client-generated trace ID. The server tags
	// the query's trace with it, so the client can find "its" query
	// in the server's /traces endpoint.
	TraceID string `json:"trace,omitempty"`
	// WantTiming asks the server to return a Timing breakdown on the
	// response. Off by default: the breakdown costs a few clock reads
	// and ~200 response bytes per request.
	WantTiming bool `json:"timing,omitempty"`
	// Table and Rows are the OpInsert payload: rows of JSON scalar cells
	// matched positionally to Table's schema. Raw messages so the server
	// can decode numbers losslessly against the column type instead of
	// through float64.
	Table string              `json:"table,omitempty"`
	Rows  [][]json.RawMessage `json:"rows,omitempty"`
}

// Response is one server response frame. writeResponse encodes it by
// hand: a field added here must be added there too, and
// TestWriteResponseMatchesJSONMarshal fails until it is.
type Response struct {
	OK      bool            `json:"ok"`
	Error   string          `json:"error,omitempty"`
	ErrKind string          `json:"error_kind,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Tables  []string        `json:"tables,omitempty"`
	// Inserted is the row count appended by a successful OpInsert.
	Inserted int `json:"inserted,omitempty"`
	// Timing is the server-side latency breakdown, present only when the
	// request set WantTiming and the server understands it (old servers
	// leave it nil — clients must treat absence as "not supported").
	Timing *Timing `json:"timing,omitempty"`
}

// Timing is the server-side latency attribution for one request, in
// microseconds. Phases are disjoint and sum to at most TotalUS (the
// remainder is dispatch overhead); TotalUS is measured from the moment
// the request frame was read off the wire to the moment the response was
// ready to write, so client_rtt - TotalUS is network plus client-side
// time. All fields are additive over the strict request/response
// conversation — there is no pipelining to double-charge.
type Timing struct {
	// TraceID echoes the request's trace ID (or is empty), so a client
	// aggregating many in-flight requests can match breakdowns without
	// relying on response ordering.
	TraceID string `json:"trace_id,omitempty"`
	// QueueUS is read-to-dispatch time: from the moment the session had
	// the whole frame to the moment it began executing it. Since one
	// goroutine does both it is the request decode and little else; a
	// frame a client pipelines behind a running request waits in the
	// socket buffer, unseen, and that wait is not in any server-side
	// figure (it shows in the client's round trip).
	QueueUS int64 `json:"queue_us"`
	// ParseUS and PlanUS are SQL text costs; both are zero on a
	// statement-cache hit — that is the cache paying off, visibly.
	ParseUS int64 `json:"parse_us"`
	PlanUS  int64 `json:"plan_us"`
	// ShardPruneUS is shard-elimination time on sharded tables (shards
	// whose key bounds cannot match are dropped before zone probes);
	// always zero for unsharded tables and old servers.
	ShardPruneUS int64 `json:"shardprune_us,omitempty"`
	// PruneUS is metadata probe time (the skipping decision), ScanUS
	// kernel execution plus adaptive feedback.
	PruneUS int64 `json:"prune_us"`
	ScanUS  int64 `json:"scan_us"`
	// SerializeUS is result wire-encoding time.
	SerializeUS int64 `json:"serialize_us"`
	TotalUS     int64 `json:"total_us"`
	// RowsSkipped is the rows pruned by skipping metadata for this
	// query, so remote clients see skipping effectiveness per request.
	RowsSkipped int64 `json:"rows_skipped"`
}

// PhaseSumUS returns the sum of the attributed phases (everything but
// TotalUS); always <= TotalUS up to clock granularity.
func (t *Timing) PhaseSumUS() int64 {
	return t.QueueUS + t.ParseUS + t.PlanUS + t.ShardPruneUS + t.PruneUS + t.ScanUS + t.SerializeUS
}

// Column is one result column on the decode side: name plus SQL-ish type
// (BIGINT, DOUBLE, VARCHAR): one element of the wire result's "columns".
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Result is the client-side decoding of a wire-encoded engine.Result.
// Cells decode as json.Number (lossless for BIGINT), string, or nil for
// NULL through DecodeResponse (the client library) or any UseNumber decoder.
type Result struct {
	Count   int      `json:"count"`
	Columns []Column `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	Aggs    []any    `json:"aggs,omitempty"`
	Stats   obs.Cost `json:"stats"` // the engine's cost record; columns tagged "-" are not on the wire
	// Timing is attached by the client library from the response frame
	// when the connection requested server timing; it is not part of the
	// wire-encoded result itself (hence the "-" tag). Nil when the
	// server predates timing or timing was not requested.
	Timing *Timing `json:"-"`
}

// ErrFrameTooLarge reports a frame whose declared length exceeds the
// reader's limit.
type ErrFrameTooLarge struct {
	Size, Max int
}

func (e *ErrFrameTooLarge) Error() string {
	return fmt.Sprintf("proto: frame of %d bytes exceeds limit %d", e.Size, e.Max)
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// keepFrameBuf bounds the buffer ReadFrameInto leaves with its caller: one
// large frame does not stay pinned for the life of the connection.
const keepFrameBuf = 64 << 10

// ReadFrame reads one frame into a fresh buffer; see ReadFrameInto.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var buf []byte
	return ReadFrameInto(r, max, &buf)
}

// ReadFrameInto reads one frame, rejecting any longer than max bytes before
// allocating. The payload lands in *buf's storage when it fits — a
// connection that decodes each frame before reading the next keeps one
// buffer for all of them — and otherwise in a fresh buffer, which replaces
// *buf unless it is larger than 64 KiB. The payload is valid until the
// next call with the same buf. io.EOF is returned unwrapped when the
// connection closes cleanly between frames; a close mid-frame yields
// io.ErrUnexpectedEOF.
func ReadFrameInto(r io.Reader, max int, buf *[]byte) ([]byte, error) {
	b := *buf
	if cap(b) < 4 {
		b = make([]byte, 4) // the length prefix borrows the buffer too
	}
	hdr := b[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err // io.EOF passes through for clean close detection
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > max {
		return nil, &ErrFrameTooLarge{Size: n, Max: max}
	}
	if cap(b) < n {
		b = make([]byte, n)
	}
	if cap(b) <= keepFrameBuf {
		*buf = b
	}
	payload := b[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// WriteMessage encodes v and writes it as one frame. A Response and a
// Request take the append-style encoders below; anything else goes through
// encoding/json. A Response's Result must already be compact, valid JSON
// (what engine.Result.AppendJSON or json.Marshal produce): it goes onto the
// wire as it stands.
func WriteMessage(w io.Writer, v any) error {
	switch m := v.(type) {
	case Response:
		return writeResponse(w, &m)
	case *Response:
		return writeResponse(w, m)
	case Request:
		return writeRequest(w, &m)
	case *Request:
		return writeRequest(w, m)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// writeResponse builds the frame — length prefix and envelope — in one
// buffer and writes it once. Result is spliced in as it stands: the server
// hands over what engine.Result.AppendJSON produced, already compact and
// valid, so it is not parsed and copied again the way encoding/json treats
// a RawMessage. The bytes equal json.Marshal(resp) for such a Result; the
// cold fields (error text, table names, the timing block) are encoded by
// encoding/json itself.
func writeResponse(w io.Writer, r *Response) error {
	b := make([]byte, 4, 4+96+len(r.Error)+len(r.Result))
	if r.OK {
		b = append(b, `{"ok":true`...)
	} else {
		b = append(b, `{"ok":false`...)
	}
	if r.Error != "" {
		b = appendField(b, `,"error":`, r.Error)
	}
	if r.ErrKind != "" {
		b = appendField(b, `,"error_kind":`, r.ErrKind)
	}
	if len(r.Result) > 0 {
		b = append(append(b, `,"result":`...), r.Result...)
	}
	if len(r.Tables) > 0 {
		b = appendField(b, `,"tables":`, r.Tables)
	}
	if r.Inserted != 0 {
		b = strconv.AppendInt(append(b, `,"inserted":`...), int64(r.Inserted), 10)
	}
	if r.Timing != nil {
		b = appendField(b, `,"timing":`, r.Timing)
	}
	return writeBuilt(w, append(b, '}'))
}

// writeRequest is writeResponse for a Request: op, SQL text, trace id
// and the timing flag by hand, the insert fields (table name, rows of raw
// cells, which encoding/json validates and compacts) through
// encoding/json. TestWriteRequestMatchesJSONMarshal holds the bytes to
// json.Marshal(req).
func writeRequest(w io.Writer, r *Request) error {
	b := make([]byte, 4, 4+64+len(r.Op)+len(r.SQL)+len(r.TraceID))
	b = appendString(append(b, `{"op":`...), r.Op)
	if r.SQL != "" {
		b = appendString(append(b, `,"sql":`...), r.SQL)
	}
	if r.TraceID != "" {
		b = appendString(append(b, `,"trace":`...), r.TraceID)
	}
	if r.WantTiming {
		b = append(b, `,"timing":true`...)
	}
	if r.Table != "" {
		b = appendField(b, `,"table":`, r.Table)
	}
	if len(r.Rows) > 0 {
		rows, err := json.Marshal(r.Rows)
		if err != nil {
			return err
		}
		b = append(append(b, `,"rows":`...), rows...)
	}
	return writeBuilt(w, append(b, '}'))
}

// writeBuilt fills in the length prefix b was built behind and writes the
// frame once.
func writeBuilt(w io.Writer, b []byte) error {
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// appendField appends key and v's encoding/json form.
func appendField(b []byte, key string, v any) []byte {
	// The cold fields are strings, string slices and Timing's integers:
	// none of them can fail to encode.
	enc, _ := json.Marshal(v)
	return append(append(b, key...), enc...)
}

// appendString appends s as encoding/json writes a string. Printable ASCII
// that its HTML-safe escaper leaves alone — most SQL text — is copied
// between quotes; anything else is encoding/json's to escape.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return appendField(b, "", s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// ReadResponse reads and decodes one response frame.
func ReadResponse(r io.Reader, max int) (Response, error) {
	var resp Response
	payload, err := ReadFrame(r, max)
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(payload, &resp); err != nil {
		return resp, fmt.Errorf("proto: bad response frame: %w", err)
	}
	return resp, nil
}
