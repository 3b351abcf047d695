package proto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/storage"
)

// codecCase is one frame payload and whether the hand-written parser is
// expected to take it (true) or leave it to encoding/json (false).
type codecCase struct {
	name    string
	payload string
	fast    bool
}

// served is the payload a server writes for res: envelope by writeResponse
// around engine.Result.AppendJSON, with env's other fields.
func served(t testing.TB, res *engine.Result, env Response) string {
	t.Helper()
	env.OK, env.Result = true, res.AppendJSON(nil)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, env); err != nil {
		t.Fatal(err)
	}
	return buf.String()[4:]
}

func responseCases(t testing.TB) []codecCase {
	str, flt, i64 := storage.StringValue, storage.FloatValue, storage.IntValue
	bigint, varchar := []storage.Type{storage.Int64}, []storage.Type{storage.String}
	rows := func(n int) *engine.Result {
		r := &engine.Result{Count: n, Columns: []string{"v", "seq"}, Types: []storage.Type{storage.Int64, storage.Int64},
			Stats: engine.ExecStats{RowsScanned: 8 * n, RowsSkipped: 1 << 20, ZonesProbed: 31, SkippersUsed: 1, ShardsScanned: 1, ShardsPruned: 1}}
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, []storage.Value{i64(int64(i) * 7919), i64(int64(i))})
		}
		return r
	}
	oneString := func(s string) *engine.Result {
		return &engine.Result{Count: 1, Columns: []string{"s"}, Types: varchar, Rows: [][]storage.Value{{str(s)}}}
	}
	cases := []codecCase{
		// Every shape AppendJSON produces.
		{"count", served(t, &engine.Result{Count: 12, Aggs: []storage.Value{i64(12)},
			Stats: engine.ExecStats{RowsScanned: 4096, RowsSkipped: 1 << 20, RowsCovered: 3, ZonesProbed: 17, SkippersUsed: 1}}, Response{}), true},
		{"sharded stats", served(t, &engine.Result{Count: 1, Aggs: []storage.Value{i64(1)},
			Stats: engine.ExecStats{RowsScanned: 9, ShardsScanned: 1, ShardsPruned: 3}}, Response{}), true},
		{"aggs with NULL", served(t, &engine.Result{Count: 3, Aggs: []storage.Value{i64(7), storage.NullValue(storage.Int64),
			flt(2.5), storage.NullValue(storage.Float64), str("max"), storage.NullValue(storage.String)}}, Response{}), true},
		{"DOUBLE with exponent and non-finite", served(t, &engine.Result{Count: 3, Aggs: []storage.Value{
			flt(math.NaN()), flt(math.Inf(1)), flt(math.Copysign(0, -1)), flt(1e21), flt(1e-7), flt(123456789.125),
			flt(-1e-6), flt(5e-324), flt(math.MaxFloat64)}}, Response{}), true},
		{"empty projection", served(t, &engine.Result{Columns: []string{"id"}, Types: bigint}, Response{}), true},
		{"no rows", served(t, rows(0), Response{}), true},
		{"one row", served(t, rows(1), Response{}), true},
		{"100 rows", served(t, rows(100), Response{}), true},
		{"10k rows", served(t, rows(10000), Response{}), true},
		{"BIGINT edges", served(t, &engine.Result{Count: 4, Columns: []string{"v"}, Types: bigint, Rows: [][]storage.Value{
			{i64(math.MinInt64)}, {i64(math.MaxInt64)}, {i64(0)}, {storage.NullValue(storage.Int64)}}}, Response{}), true},
		{"plain VARCHAR", served(t, &engine.Result{Count: 3, Columns: []string{"city", "note"}, Types: []storage.Type{storage.String, storage.String},
			Rows: [][]storage.Value{{str("Oslo"), str("")}, {str("a b/c:d,e]f}g"), storage.NullValue(storage.String)}, {str("del\x7f"), str("null")}}}, Response{}), true},
		{"projection beside aggs", served(t, &engine.Result{Count: 1, Columns: []string{"a"}, Types: []storage.Type{storage.Float64},
			Rows: [][]storage.Value{{flt(0.1)}}, Aggs: []storage.Value{i64(7), storage.NullValue(storage.Int64)}}, Response{}), true},
		{"untyped empty projection", served(t, &engine.Result{Columns: []string{"a"}}, Response{}), true},
		{"result beside inserted", served(t, rows(2), Response{Inserted: 3}), true},
		{"VARCHAR with a quote", served(t, oneString(`say "hi"`), Response{}), false},
		{"VARCHAR with a backslash", served(t, oneString(`C:\data`), Response{}), false},
		{"VARCHAR with an angle bracket", served(t, oneString("a<b"), Response{}), false},
		{"VARCHAR with non-ASCII", served(t, oneString("héllo 日本語"), Response{}), false},
		{"VARCHAR with invalid UTF-8", served(t, oneString("bad\xff\xfe"), Response{}), false},
		{"VARCHAR with a control byte", served(t, oneString("tab\there"), Response{}), false},
		{"column name with a quote", served(t, &engine.Result{Columns: []string{`na"me`}, Types: bigint}, Response{}), false},
		{"result beside timing", served(t, rows(1), Response{Timing: &Timing{TraceID: "t-1", QueueUS: 1, TotalUS: 9}}), true},
		{"every timing field", served(t, rows(3), Response{Timing: &Timing{TraceID: "conn-7/q-12", QueueUS: 1, ParseUS: 2, PlanUS: 3,
			ShardPruneUS: 4, PruneUS: 5, ScanUS: 6, SerializeUS: 7, TotalUS: 41, RowsSkipped: 1 << 40}}), true},
		{"timing without shardprune_us or trace id", served(t, rows(2), Response{Timing: &Timing{QueueUS: 12, ParseUS: 30, PlanUS: 9,
			PruneUS: 4, ScanUS: 250, SerializeUS: 8, TotalUS: 320}}), true},
		{"timing with a non-ASCII trace id", served(t, rows(1), Response{Timing: &Timing{TraceID: "tß", TotalUS: 9}}), false},
		{"result beside tables", served(t, rows(1), Response{Tables: []string{"a"}}), false},
	}
	return append(cases, []codecCase{
		// The envelopes without a result.
		{"ping", `{"ok":true}`, true},
		{"insert", `{"ok":true,"inserted":65536}`, true},
		{"inserted beyond an int", `{"ok":true,"inserted":9223372036854775808}`, false},
		{"inserted beyond uint64", `{"ok":true,"inserted":18446744073709551616}`, false},
		{"negative inserted", `{"ok":true,"inserted":-1}`, false},
		{"leading zero in inserted", `{"ok":true,"inserted":07}`, false},
		{"retired stmt key", `{"ok":true,"stmt":42}`, false},
		{"catalog", `{"ok":true,"tables":["a","b"]}`, false},
		{"timed ping", `{"ok":true,"timing":{"trace_id":"p","queue_us":0,"parse_us":0,"plan_us":0,"prune_us":0,"scan_us":0,"serialize_us":0,"total_us":3,"rows_skipped":0}}`, true},
		{"timing first", `{"timing":{"total_us":3},"ok":true,"result":{"count":1}}`, true},
		{"empty timing", `{"ok":true,"timing":{}}`, true},
		{"null timing", `{"ok":true,"timing":null}`, false},
		{"negative timing", `{"ok":true,"timing":{"queue_us":-1,"total_us":3}}`, false},
		{"fractional timing", `{"ok":true,"timing":{"total_us":3.5}}`, false},
		{"timing beyond int64", `{"ok":true,"timing":{"total_us":9223372036854775808}}`, false},
		{"unknown timing key", `{"ok":true,"timing":{"total_us":3,"wait_us":1}}`, false},
		{"duplicate timing key", `{"ok":true,"timing":{"total_us":3,"total_us":4}}`, false},
		{"duplicate timing", `{"ok":true,"timing":{"total_us":3},"timing":{"scan_us":4}}`, false},
		{"timing on a failure", `{"ok":false,"error":"boom","timing":{"total_us":3}}`, false},
		{"error", `{"ok":false,"error":"syntax error near \"FORM\"","error_kind":"syntax"}`, false},
		{"bare failure", `{"ok":false}`, false},
		{"empty envelope", `{}`, false},
		{"result without ok", `{"result":{"count":1}}`, false},
		// Results AppendJSON never writes but encoding/json reads.
		{"empty result", `{"ok":true,"result":{}}`, true},
		{"keys out of order", `{"result":{"stats":{"zones_probed":2,"rows_scanned":1},"aggs":[1],"rows":[[2]],"columns":[{"type":"BIGINT","name":"v"}],"count":1},"ok":true}`, true},
		{"empty arrays", `{"ok":true,"result":{"count":0,"columns":[],"rows":[],"aggs":[]}}`, true},
		{"empty row", `{"ok":true,"result":{"count":1,"rows":[[],[1]]}}`, true},
		{"ragged rows", `{"ok":true,"result":{"count":9,"columns":[{"name":"a","type":"BIGINT"}],"rows":[[1,2,3],[],[4]]}}`, true},
		{"number forms", `{"ok":true,"result":{"aggs":[0,-0,0.5,-1.25e+10,1E-9,1e5,12345678901234567890123]}}`, true},
		{"hostile count", `{"ok":true,"result":{"count":999999999999999999,"columns":[{"name":"a","type":"BIGINT"},{"name":"b","type":"BIGINT"}],"rows":[[1,2]]}}`, true},
		{"null result", `{"ok":true,"result":null}`, false},
		{"null rows", `{"ok":true,"result":{"rows":null}}`, false},
		{"null row", `{"ok":true,"result":{"rows":[null]}}`, false},
		{"negative count", `{"ok":true,"result":{"count":-1}}`, false},
		{"fractional count", `{"ok":true,"result":{"count":1.0}}`, false},
		{"count beyond int64", `{"ok":true,"result":{"count":9223372036854775808}}`, false},
		{"string count", `{"ok":true,"result":{"count":"three"}}`, false},
		{"boolean cell", `{"ok":true,"result":{"aggs":[true]}}`, false},
		{"nested cell", `{"ok":true,"result":{"aggs":[[1]]}}`, false},
		{"object cell", `{"ok":true,"result":{"aggs":[{"a":1}]}}`, false},
		{"unknown result key", `{"ok":true,"result":{"count":1,"extra":2}}`, false},
		{"unknown envelope key", `{"ok":true,"extra":2}`, false},
		{"key in another case", `{"ok":true,"result":{"Count":1}}`, false},
		{"escaped key", `{"ok":true,"result":{"c\u006funt":1}}`, false},
		{"whitespace", `{"ok": true}`, false},
		{"leading whitespace", ` {"ok":true}`, false},
		// The four mutants (see TestDecodeResponseMatchesReflective).
		{"leading zero", `{"ok":true,"result":{"aggs":[01]}}`, false},
		{"leading zero after a sign", `{"ok":true,"result":{"aggs":[-012]}}`, false},
		{"leading zero in a count", `{"ok":true,"result":{"count":007}}`, false},
		{"trailing garbage", `{"ok":true}x`, false},
		{"trailing value", `{"ok":true,"result":{"count":1}}{"ok":false}`, false},
		{"trailing newline", "{\"ok\":true}\n", false},
		{"duplicate result", `{"ok":true,"result":{"count":1,"aggs":[1]},"result":{"count":2}}`, false},
		{"duplicate count", `{"ok":true,"result":{"count":1,"count":2}}`, false},
		{"duplicate rows", `{"ok":true,"result":{"rows":[[1],[2]],"rows":[[3]]}}`, false},
		{"duplicate stat", `{"ok":true,"result":{"stats":{"rows_scanned":1,"rows_scanned":2}}}`, false},
		{"duplicate ok", `{"ok":true,"ok":true}`, false},
		// Malformed: both paths must refuse.
		{"empty payload", ``, false},
		{"not an object", `[]`, false},
		{"lone minus", `{"ok":true,"result":{"aggs":[-]}}`, false},
		{"number ending in a point", `{"ok":true,"result":{"aggs":[1.]}}`, false},
		{"number starting with a point", `{"ok":true,"result":{"aggs":[.5]}}`, false},
		{"number ending in an exponent", `{"ok":true,"result":{"aggs":[1e]}}`, false},
		{"number with a plus", `{"ok":true,"result":{"aggs":[+1]}}`, false},
		{"nul is not null", `{"ok":true,"result":{"aggs":[nul]}}`, false},
		{"trailing comma in an array", `{"ok":true,"result":{"aggs":[1,]}}`, false},
		{"trailing comma in an object", `{"ok":true,}`, false},
		{"missing colon", `{"ok"true}`, false},
		{"unterminated string", `{"ok":true,"result":{"aggs":["abc]}}`, false},
		{"truncated", `{"ok":true,"result":{"count":1`, false},
		{"truncated in rows", `{"ok":true,"result":{"count":1,"rows":[[1,2],[3`, false},
	}...)
}

// TestDecodeResponseMatchesReflective is the differential test of the
// hand-written response parser against the reflective UseNumber decoder it
// stands in front of: on every shape engine.Result.AppendJSON produces, and
// on frames only encoding/json understands, DecodeResponse must return what
// decodeResponseReflective returns — the same value under
// reflect.DeepEqual, nil-ness of empty slices included, and the same
// error-ness — and the parser must accept exactly the frames marked fast.
//
// Four mutants of the parser were each checked to fail here:
//   - number() accepting leading zeros ("leading zero…" cases: fast path
//     accepts what encoding/json rejects),
//   - decodeResponseFast not requiring c.i == len(c.s) ("trailing…" cases
//     are taken by the fast path),
//   - cells() dropping a NULL (every case with a null cell decodes short),
//   - object() not refusing a repeated key ("duplicate…" cases: the
//     reflective decoder merges the second result into the first).
func TestDecodeResponseMatchesReflective(t *testing.T) {
	for _, c := range responseCases(t) {
		payload := []byte(c.payload)
		want, wantErr := decodeResponseReflective(payload)
		got, gotErr := DecodeResponse(payload)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%s: DecodeResponse error %v, reflective decoder %v", c.name, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoders disagree\n  got: %s\n want: %s", c.name, describe(got), describe(want))
		}
		fast, took := decodeResponseFast(payload)
		if took != c.fast {
			t.Errorf("%s: hand-written parser took the frame = %v, want %v", c.name, took, c.fast)
		}
		if took && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Errorf("%s: hand-written parser accepted\n  got: %s\n want: %s (%v)", c.name, describe(fast), describe(want), wantErr)
		}
		if !bytes.Equal(payload, []byte(c.payload)) {
			t.Errorf("%s: payload modified by decoding", c.name)
		}
	}
}

// TestDecodeResponseKeepsNothing checks the promise the client's reused
// read buffer rests on: a decoded response shares no memory with payload.
func TestDecodeResponseKeepsNothing(t *testing.T) {
	for _, c := range responseCases(t) {
		payload := []byte(c.payload)
		got, err := DecodeResponse(payload)
		if err != nil {
			continue
		}
		before := describe(got)
		for i := range payload {
			payload[i] = '#'
		}
		if after := describe(got); after != before {
			t.Errorf("%s: decoded response changed with its payload\n before: %s\n  after: %s", c.name, before, after)
		}
	}
}

// describe renders a decoded response with the dynamic type of every cell.
func describe(d Decoded) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%+v", d.Response)
	if d.Result != nil {
		fmt.Fprintf(&sb, " result=%#v", *d.Result)
	}
	if d.Timing != nil {
		fmt.Fprintf(&sb, " timing=%+v", *d.Timing)
	}
	return sb.String()
}

// FuzzDecodeResponse: whatever the hand-written parser accepts, the
// reflective decoder accepts too and decodes to the same value; and
// DecodeResponse never panics.
func FuzzDecodeResponse(f *testing.F) {
	for _, c := range responseCases(f) {
		if len(c.payload) < 4096 {
			f.Add([]byte(c.payload))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fast, took := decodeResponseFast(payload)
		if !took {
			DecodeResponse(payload)
			return
		}
		want, err := decodeResponseReflective(payload)
		if err != nil {
			t.Fatalf("hand-written parser accepted %q, reflective decoder: %v", payload, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoders disagree on %q\n  got: %s\n want: %s", payload, describe(fast), describe(want))
		}
	})
}

func requestCases() []codecCase {
	return []codecCase{
		{"ping", `{"op":"ping"}`, true},
		{"query", `{"op":"query","sql":"SELECT COUNT(*) FROM data WHERE v BETWEEN 1 AND 2"}`, true},
		{"traced ping", `{"op":"ping","trace":"t-1","timing":true}`, true},
		{"every scalar field", `{"op":"query","sql":"SELECT 1","trace":"a b","timing":true}`, true},
		{"keys out of order", `{"timing":true,"sql":"SELECT 1","op":"query"}`, true},
		{"unknown op", `{"op":"frobnicate"}`, true},
		{"empty object", `{}`, true},
		{"raw angle bracket", `{"op":"query","sql":"SELECT COUNT(*) FROM t WHERE v < 5"}`, true},
		{"escaped angle bracket", `{"op":"query","sql":"SELECT COUNT(*) FROM t WHERE v \u003c 5"}`, false},
		{"escaped quote", `{"op":"query","sql":"SELECT \"v\" FROM t"}`, false},
		{"non-ASCII", `{"op":"query","sql":"SELECT 'é'"}`, false},
		{"insert", `{"op":"insert","table":"t","rows":[[1,2.5,"x"],[null,1e3,"y"]]}`, false},
		{"timing false", `{"op":"ping","timing":false}`, false},
		{"retired op", `{"op":"prepare","sql":"SELECT 1"}`, true},
		{"retired stmt key", `{"op":"exec","stmt":1}`, false},
		{"numeric op", `{"op":7}`, false},
		{"unknown key", `{"op":"ping","extra":1}`, false},
		{"key in another case", `{"Op":"ping"}`, false},
		{"duplicate key", `{"op":"ping","op":"query"}`, false},
		{"null op", `{"op":null}`, false},
		{"whitespace", `{"op": "ping"}`, false},
		{"trailing garbage", `{"op":"ping"}x`, false},
		{"trailing newline", "{\"op\":\"ping\"}\n", false},
		{"truncated", `{"op":"query","sql":"SELECT`, false},
		{"control byte", "{\"op\":\"query\",\"sql\":\"a\tb\"}", false},
		{"not JSON", `{not json`, false},
		{"empty payload", ``, false},
	}
}

// TestDecodeRequestMatchesUnmarshal is the request-side twin of
// TestDecodeResponseMatchesReflective, against json.Unmarshal.
func TestDecodeRequestMatchesUnmarshal(t *testing.T) {
	for _, c := range requestCases() {
		payload := []byte(c.payload)
		var want Request
		wantErr := json.Unmarshal(payload, &want)
		got, gotErr := DecodeRequest(payload)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%s: DecodeRequest error %v, json.Unmarshal %v", c.name, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoders disagree\n  got: %+v\n want: %+v", c.name, got, want)
		}
		fast, took := decodeRequestFast(payload)
		if took != c.fast {
			t.Errorf("%s: hand-written parser took the frame = %v, want %v", c.name, took, c.fast)
		}
		if took && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Errorf("%s: hand-written parser accepted %+v, want %+v (%v)", c.name, fast, want, wantErr)
		}
		// The server reuses its read buffer: a decoded request keeps none of it.
		for i := range payload {
			payload[i] = '#'
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded request changed with its payload: %+v", c.name, got)
		}
	}
}

// FuzzDecodeRequest: whatever the hand-written request parser accepts,
// json.Unmarshal accepts too and decodes to the same Request.
func FuzzDecodeRequest(f *testing.F) {
	for _, c := range requestCases() {
		f.Add([]byte(c.payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fast, took := decodeRequestFast(payload)
		if !took {
			DecodeRequest(payload)
			return
		}
		var want Request
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("hand-written parser accepted %q, json.Unmarshal: %v", payload, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoders disagree on %q\n  got: %+v\n want: %+v", payload, fast, want)
		}
	})
}

// TestWriteRequestMatchesJSONMarshal holds the append-style request encoder
// to encoding/json byte for byte — every field, alone and together, by
// value and by pointer, strings its escaper touches included — and checks
// the frame goes out as one write with a correct length prefix.
func TestWriteRequestMatchesJSONMarshal(t *testing.T) {
	rows := [][]json.RawMessage{{json.RawMessage(`1`), json.RawMessage(` 2.5 `), json.RawMessage(`"x<y"`)}, {json.RawMessage(`null`)}}
	cases := []Request{
		{},
		{Op: OpPing},
		{Op: OpQuery, SQL: "SELECT COUNT(*) FROM data WHERE v BETWEEN 1 AND 2"},
		{Op: OpQuery, SQL: "SELECT v FROM t WHERE v < 5 AND s = 'a&b' OR v > 9"},
		{Op: OpQuery, SQL: "quote \" backslash \\ slash / tab\t nl\n nul\x00 del\x7f é 日本 \u2028 bad\xff"},
		{Op: OpPing, TraceID: "t-1", WantTiming: true},
		{Op: OpQuery, SQL: "SELECT 1", TraceID: `tr"ace<`},
		{Op: OpInsert, Table: `t"<`, Rows: rows},
		{Op: OpInsert, Table: "t", Rows: [][]json.RawMessage{}},
		{Op: "o", SQL: "s", TraceID: "t", WantTiming: true, Table: "tb", Rows: rows},
	}
	// The last case sets every field, so a field added to Request fails
	// here until the case — and with it writeRequest — learns about it.
	all := reflect.ValueOf(cases[len(cases)-1])
	for i := 0; i < all.NumField(); i++ {
		if all.Field(i).IsZero() {
			t.Fatalf("Request.%s is unset in the all-fields case: set it there and encode it in writeRequest", all.Type().Field(i).Name)
		}
	}
	for i, req := range cases {
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{req, &req} {
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
				t.Errorf("case %d: request drifted from encoding/json\n got: %s\nwant: %s", i, got, want)
			}
			back, err := DecodeRequest(got)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			var viaJSON Request
			if err := json.Unmarshal(want, &viaJSON); err != nil || !reflect.DeepEqual(back, viaJSON) {
				t.Errorf("case %d: round trip %+v, want %+v (%v)", i, back, viaJSON, err)
			}
		}
	}
	// A cell that is not JSON is refused, as json.Marshal refuses it, and
	// nothing is written.
	w := &countingWriter{}
	bad := Request{Op: OpInsert, Table: "t", Rows: [][]json.RawMessage{{json.RawMessage(`{`)}}}
	if _, err := json.Marshal(bad); err == nil {
		t.Fatal("json.Marshal accepted a malformed cell")
	}
	if err := WriteMessage(w, bad); err == nil || w.writes != 0 {
		t.Fatalf("malformed cell: err=%v after %d writes", err, w.writes)
	}
}

// TestReadFrameIntoReusesBuffer pins the buffer contract: a frame that fits
// lands in the caller's storage, one that does not gets its own, which the
// caller keeps unless it is larger than keepFrameBuf.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	frames := []string{"first", "2nd", strings.Repeat("x", 100), "", strings.Repeat("y", keepFrameBuf+1), "last"}
	var stream bytes.Buffer
	for _, m := range frames {
		if err := WriteFrame(&stream, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 16)
	for i, want := range frames {
		before := buf
		got, err := ReadFrameInto(&stream, 1<<20, &buf)
		if err != nil || string(got) != want {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
		fits, kept := len(want) <= cap(before), &buf[:1][0] == &before[:1][0]
		if len(want) > 0 && fits != (&got[0] == &before[:1][0]) {
			t.Fatalf("frame %d (%d bytes, buffer %d): fits = %v but storage says otherwise", i, len(want), cap(before), fits)
		}
		if wantKept := fits || len(want) > keepFrameBuf; kept != wantKept {
			t.Fatalf("frame %d (%d bytes, buffer %d): caller's buffer kept = %v, want %v", i, len(want), cap(before), kept, wantKept)
		}
	}
}
