package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{
		[]byte(`{"op":"ping"}`),
		{}, // empty frame is legal at the framing layer
		[]byte(strings.Repeat("x", 70000)),
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf, MaxFrameDefault)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, MaxFrameDefault); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	buf.Write(hdr[:])
	_, err := ReadFrame(&buf, 1<<20)
	var tooBig *ErrFrameTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if tooBig.Size != 1<<30 || tooBig.Max != 1<<20 {
		t.Fatalf("bad error payload: %+v", tooBig)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	// Header torn mid-way.
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:2]), 1024); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: got %v, want ErrUnexpectedEOF", err)
	}
	// Payload torn mid-way.
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:7]), 1024); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn payload: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{Op: OpQuery, SQL: "SELECT COUNT(*) FROM data"}
	if err := WriteMessage(&buf, req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("request round-trip: %+v != %+v", gotReq, req)
	}

	resp := Response{OK: true, Result: json.RawMessage(`{"count":3,"stats":{}}`), Tables: []string{"a", "b"}}
	if err := WriteMessage(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := ReadResponse(&buf, MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if !gotResp.OK || string(gotResp.Result) != string(resp.Result) || len(gotResp.Tables) != 2 {
		t.Fatalf("response round-trip: %+v", gotResp)
	}
}

func TestBadJSONFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := readRequest(&buf); err == nil {
		t.Fatal("bad JSON accepted as request")
	}
}

// TestResultDecodesEngineShape checks proto.Result against the exact
// strings pinned by the engine's golden wire-encoding test, so the two
// sides of the protocol cannot drift apart silently.
func TestResultDecodesEngineShape(t *testing.T) {
	wire := `{"count":3,"columns":[{"name":"id","type":"BIGINT"},{"name":"price","type":"DOUBLE"}],` +
		`"rows":[[1,9.5],[2,null],[3,12.25]],"aggs":[6],` +
		`"stats":{"rows_scanned":3,"rows_skipped":0,"rows_covered":0,"zones_probed":1,"skippers_used":1}}`
	dec := json.NewDecoder(strings.NewReader(wire))
	dec.UseNumber()
	var res Result
	if err := dec.Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || len(res.Columns) != 2 || len(res.Rows) != 3 {
		t.Fatalf("decoded %+v", res)
	}
	if res.Columns[0] != (Column{Name: "id", Type: "BIGINT"}) {
		t.Fatalf("column 0: %+v", res.Columns[0])
	}
	if n, ok := res.Rows[0][0].(json.Number); !ok || n.String() != "1" {
		t.Fatalf("cell (0,0): %#v", res.Rows[0][0])
	}
	if res.Rows[1][1] != nil {
		t.Fatalf("NULL cell decoded as %#v", res.Rows[1][1])
	}
	if res.Stats.ZonesProbed != 1 || res.Stats.RowsScanned != 3 {
		t.Fatalf("stats: %+v", res.Stats)
	}
}

// TestTimingFieldCompat proves the trace/timing fields are optional in
// both directions: an old client's request (no trace/timing keys) decodes
// on a new server with zero values, and an old server's response (no
// timing key) decodes on a new client with a nil Timing — so mixed
// deployments keep working.
func TestTimingFieldCompat(t *testing.T) {
	// Old client -> new server: bare request frame.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte(`{"op":"query","sql":"SELECT COUNT(*) FROM data"}`)); err != nil {
		t.Fatal(err)
	}
	req, err := readRequest(&buf)
	if err != nil {
		t.Fatalf("old-style request rejected: %v", err)
	}
	if req.TraceID != "" || req.WantTiming {
		t.Fatalf("absent fields decoded non-zero: %+v", req)
	}

	// New client -> old server: the old server's strict decoder is
	// mirrored by readRequest; unknown-to-it fields are simply dropped by
	// encoding/json, so the new frame must still parse as a Request.
	buf.Reset()
	if err := WriteMessage(&buf, Request{Op: OpQuery, SQL: "SELECT 1", TraceID: "t-1", WantTiming: true}); err != nil {
		t.Fatal(err)
	}
	req2, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if req2.TraceID != "t-1" || !req2.WantTiming {
		t.Fatalf("timing fields lost in round-trip: %+v", req2)
	}

	// Old server -> new client: response without a timing key.
	buf.Reset()
	if err := WriteFrame(&buf, []byte(`{"ok":true,"result":{"count":1,"stats":{}}}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(&buf, MaxFrameDefault)
	if err != nil {
		t.Fatalf("old-style response rejected: %v", err)
	}
	if resp.Timing != nil {
		t.Fatalf("absent timing decoded non-nil: %+v", resp.Timing)
	}

	// New server -> new client: full breakdown round-trips.
	buf.Reset()
	tm := &Timing{TraceID: "t-1", QueueUS: 1, ParseUS: 2, PlanUS: 3, PruneUS: 4,
		ScanUS: 5, SerializeUS: 6, TotalUS: 30, RowsSkipped: 7}
	if err := WriteMessage(&buf, Response{OK: true, Timing: tm}); err != nil {
		t.Fatal(err)
	}
	resp2, err := ReadResponse(&buf, MaxFrameDefault)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Timing == nil || *resp2.Timing != *tm {
		t.Fatalf("timing round-trip: %+v, want %+v", resp2.Timing, tm)
	}
	if got := resp2.Timing.PhaseSumUS(); got != 21 {
		t.Fatalf("PhaseSumUS = %d, want 21", got)
	}
	if resp2.Timing.PhaseSumUS() > resp2.Timing.TotalUS {
		t.Fatal("phase sum exceeds total")
	}
}

// TestWriteResponseMatchesJSONMarshal holds the append-style response
// encoder to encoding/json byte for byte — every field, alone and
// together, by value and by pointer — and checks the frame goes out as
// one write with a correct length prefix.
func TestWriteResponseMatchesJSONMarshal(t *testing.T) {
	// A result as engine.Result.AppendJSON leaves it: compact, HTML-safe.
	result := json.RawMessage(`{"count":2,"columns":[{"name":"s","type":"VARCHAR"}],"rows":[["a\u003cb"],[null]],"stats":{"rows_scanned":2,"rows_skipped":0,"rows_covered":0,"zones_probed":0,"skippers_used":0}}`)
	tm := &Timing{TraceID: "t-9", QueueUS: 1, ParseUS: 2, PlanUS: 3, ShardPruneUS: 4, PruneUS: 5, ScanUS: 6, SerializeUS: 7, TotalUS: 40, RowsSkipped: 1 << 40}
	cases := []Response{
		{},
		{OK: true},
		{OK: true, Result: result},
		{OK: true, Result: result, Timing: tm},
		{OK: true, Timing: &Timing{}},
		{OK: true, Tables: []string{"a", `b"c`, "<t>", ""}},
		{OK: true, Inserted: 65536},
		{Error: "syntax error near \"<\"\n\tline 2   é \xff", ErrKind: ErrKindSyntax},
		{Error: "only a message"},
		{OK: true, Error: "e", ErrKind: "k", Result: result, Tables: []string{"t"}, Inserted: 3, Timing: tm},
	}
	// The last case sets every field, so a field added to Response fails
	// here until the case — and with it writeResponse — learns about it.
	all := reflect.ValueOf(cases[len(cases)-1])
	for i := 0; i < all.NumField(); i++ {
		if all.Field(i).IsZero() {
			t.Fatalf("Response.%s is unset in the all-fields case: set it there and encode it in writeResponse", all.Type().Field(i).Name)
		}
	}
	for i, resp := range cases {
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{resp, &resp} {
			w := &countingWriter{}
			if err := WriteMessage(w, v); err != nil {
				t.Fatal(err)
			}
			if w.writes != 1 {
				t.Errorf("case %d: frame went out in %d writes, want 1", i, w.writes)
			}
			got, err := ReadFrame(&w.buf, MaxFrameDefault)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			if !bytes.Equal(got, want) || w.buf.Len() != 0 {
				t.Errorf("case %d: envelope drifted from encoding/json\n got: %s\nwant: %s", i, got, want)
			}
		}
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// readRequest reads one request frame and decodes it as the server does.
func readRequest(r io.Reader) (Request, error) {
	payload, err := ReadFrame(r, MaxFrameDefault)
	if err != nil {
		return Request{}, err
	}
	return DecodeRequest(payload)
}
