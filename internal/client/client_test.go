package client

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"adskip/internal/obs"
	"adskip/internal/proto"
)

// cannedServer answers each request on one connection with the next raw
// reply. A reply starting with "frame:" is sent as a proper frame; one
// starting with "raw:" is written as is (for truncated frames) and the
// connection is then closed.
func cannedServer(t *testing.T, replies ...string) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for _, reply := range replies {
			if _, err := proto.ReadFrame(conn, proto.MaxFrameDefault); err != nil {
				return
			}
			if raw, ok := strings.CutPrefix(reply, "raw:"); ok {
				io.WriteString(conn, raw)
				return
			}
			if err := proto.WriteFrame(conn, []byte(strings.TrimPrefix(reply, "frame:"))); err != nil {
				return
			}
		}
		io.Copy(io.Discard, conn) // hold the connection until the client closes
	}()
	c, err := Dial(ln.Addr().String(), Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
		<-done
	})
	return c
}

// TestDecodeResponseOnePass pins what the single UseNumber pass over a
// response frame must deliver: lossless BIGINT cells, nil for NULL, the
// timing block attached to the result, and the envelope's other fields.
func TestDecodeResponseOnePass(t *testing.T) {
	c := cannedServer(t,
		`frame:{"ok":true,"result":{"count":3,"columns":[{"name":"v","type":"BIGINT"},{"name":"s","type":"VARCHAR"},{"name":"f","type":"DOUBLE"}],`+
			`"rows":[[9223372036854775807,"a<b",1.5],[-9223372036854775808,null,1e-7],[null,"",null]],"aggs":[9007199254740993,null],`+
			`"stats":{"rows_scanned":5,"rows_skipped":4,"rows_covered":3,"zones_probed":2,"skippers_used":1,"shards_scanned":1,"shards_pruned":1}},`+
			`"timing":{"trace_id":"t-1","queue_us":1,"parse_us":2,"plan_us":3,"shardprune_us":4,"prune_us":5,"scan_us":6,"serialize_us":7,"total_us":99,"rows_skipped":4}}`,
		`frame:{"ok":true,"result":{"count":7,"aggs":[7],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":7,"zones_probed":0,"skippers_used":0}}}`,
		`frame:{"ok":true,"tables":["a","b"]}`,
		`frame:{"ok":true,"inserted":2}`,
		`frame:{"ok":true}`,
	)
	res, err := c.Query("SELECT v, s, f FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || len(res.Rows) != 3 || len(res.Columns) != 3 || res.Columns[1] != (proto.Column{Name: "s", Type: "VARCHAR"}) {
		t.Fatalf("decoded %+v", res)
	}
	for _, c := range []struct {
		got  any
		want any
	}{
		{res.Rows[0][0], json.Number("9223372036854775807")},
		{res.Rows[1][0], json.Number("-9223372036854775808")},
		{res.Rows[0][1], "a<b"},
		{res.Rows[0][2], json.Number("1.5")},
		{res.Rows[1][2], json.Number("1e-7")},
		{res.Rows[1][1], nil},
		{res.Rows[2][0], nil},
		{res.Rows[2][1], ""},
		{res.Aggs[0], json.Number("9007199254740993")}, // 2^53+1: float64 would round it
		{res.Aggs[1], nil},
	} {
		if c.got != c.want {
			t.Errorf("cell %#v, want %#v", c.got, c.want)
		}
	}
	if res.Stats != (obs.Cost{RowsScanned: 5, RowsSkipped: 4, RowsCovered: 3, ZonesProbed: 2, SkippersUsed: 1, ShardsScanned: 1, ShardsPruned: 1}) {
		t.Errorf("stats %+v", res.Stats)
	}
	if res.Timing == nil || res.Timing.TraceID != "t-1" || res.Timing.TotalUS != 99 || res.Timing.PhaseSumUS() != 28 {
		t.Errorf("timing %+v", res.Timing)
	}

	if res, err = c.Query("SELECT COUNT(*) FROM t"); err != nil || res.Count != 7 || res.Aggs[0] != json.Number("7") || res.Rows != nil || res.Timing != nil {
		t.Fatalf("count result %+v, %v", res, err)
	}
	if tables, err := c.Tables(); err != nil || len(tables) != 2 || tables[1] != "b" {
		t.Fatalf("tables: %v, %v", tables, err)
	}
	if n, err := c.Insert("t", [][]any{{1}, {2}}); err != nil || n != 2 {
		t.Fatalf("insert: %d, %v", n, err)
	}
	// A success frame without a result is a protocol violation for a query.
	if _, err := c.Query("SELECT 1"); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Fatalf("resultless query response: %v", err)
	}
}

func TestDecodeErrorFrames(t *testing.T) {
	c := cannedServer(t,
		`frame:{"ok":false,"error":"syntax error near \"FORM\"","error_kind":"syntax"}`,
		`frame:{"ok":false,"error":"server recovering","error_kind":"recovering","timing":{"queue_us":0,"parse_us":0,"plan_us":0,"prune_us":0,"scan_us":0,"serialize_us":0,"total_us":1,"rows_skipped":0}}`,
		`frame:{"ok":true,"result":{"count":"three"}}`,
		`frame:{"ok":true,"result":`,
		`raw:`+"\x00\x00\x00\x40"+`{"ok":true,"result":{"count":1`,
	)
	_, err := c.Query("SELECT * FORM t")
	var se *ServerError
	if !errors.As(err, &se) || se.Kind != proto.ErrKindSyntax || se.Msg != `syntax error near "FORM"` {
		t.Fatalf("error frame: %v", err)
	}
	if _, err = c.Query("SELECT 1"); !Retryable(err) {
		t.Fatalf("recovering refusal not retryable: %v", err)
	}
	// Wrong cell type, malformed JSON, and a frame cut short mid-payload
	// are all decode errors, none of them a ServerError.
	for _, what := range []string{"mistyped count", "malformed JSON", "truncated frame"} {
		_, err := c.Query("SELECT 1")
		if err == nil || errors.As(err, &se) {
			t.Fatalf("%s: err=%v", what, err)
		}
		if what == "truncated frame" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
		}
	}
}
