package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/proto"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// jsonTable is a tiny fixed table (no RNG) so the golden strings below
// are fully deterministic.
func jsonTable(t *testing.T) *Engine {
	t.Helper()
	tb := table.MustNew("j", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "city", Type: storage.String},
	})
	rows := []struct {
		id    storage.Value
		price storage.Value
		city  storage.Value
	}{
		{storage.IntValue(1), storage.FloatValue(9.5), storage.StringValue("oslo")},
		{storage.IntValue(2), storage.NullValue(storage.Float64), storage.StringValue("bergen")},
		{storage.IntValue(3), storage.FloatValue(12.25), storage.NullValue(storage.String)},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.price, r.city); err != nil {
			t.Fatal(err)
		}
	}
	return New(tb, Options{}) // no skippers: stats stay deterministic
}

// TestResultMarshalJSONGolden pins the wire encoding of Result: column
// names and types, Go-typed cells, null handling, aggregate values, and
// the stats block. internal/proto.Result decodes this shape — if one of
// these strings needs to change, the protocol changed.
func TestResultMarshalJSONGolden(t *testing.T) {
	e := jsonTable(t)
	cases := []struct {
		name string
		q    Query
		want string
	}{
		{
			name: "projection with nulls",
			q:    Query{Select: []string{"id", "price", "city"}},
			want: `{"count":3,"columns":[{"name":"id","type":"BIGINT"},{"name":"price","type":"DOUBLE"},{"name":"city","type":"VARCHAR"}],"rows":[[1,9.5,"oslo"],[2,null,"bergen"],[3,12.25,null]],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "empty projection keeps rows array",
			q: Query{Select: []string{"id"},
				Where: expr.Conj{Preds: []expr.Pred{{Col: "id", Op: expr.GT, Args: []storage.Value{storage.IntValue(99)}}}}},
			want: `{"count":0,"columns":[{"name":"id","type":"BIGINT"}],"rows":[],"stats":{"rows_scanned":3,"rows_skipped":0,"rows_covered":0,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "count only",
			q:    Query{Aggs: []Agg{{Kind: CountStar}}},
			want: `{"count":3,"aggs":[3],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "aggregates over data",
			q:    Query{Aggs: []Agg{{Kind: Sum, Col: "id"}, {Kind: Avg, Col: "id"}, {Kind: Min, Col: "price"}}},
			want: `{"count":3,"aggs":[6,2,9.5],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
		{
			name: "group by carries key and agg types",
			q:    Query{GroupBy: "city", Aggs: []Agg{{Kind: CountStar}}},
			want: `{"count":3,"columns":[{"name":"city","type":"VARCHAR"},{"name":"COUNT(*)","type":"BIGINT"}],"rows":[["bergen",1],["oslo",1],[null,1]],"stats":{"rows_scanned":0,"rows_skipped":0,"rows_covered":3,"zones_probed":0,"skippers_used":0}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.Query(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("wire encoding drifted\n got: %s\nwant: %s", got, tc.want)
			}
			// The encoding must round-trip as generic JSON (no NaN leaks).
			var v map[string]any
			if err := json.Unmarshal(got, &v); err != nil {
				t.Fatalf("round-trip: %v", err)
			}
		})
	}
}

// TestValueMarshalJSON pins the cell encoding, including the non-finite
// float guard.
func TestValueMarshalJSON(t *testing.T) {
	cases := []struct {
		v    storage.Value
		want string
	}{
		{storage.IntValue(-7), `-7`},
		{storage.IntValue(1 << 60), `1152921504606846976`},
		{storage.FloatValue(2.5), `2.5`},
		{storage.StringValue(`a"b`), `"a\"b"`},
		{storage.NullValue(storage.Int64), `null`},
		{storage.NullValue(storage.String), `null`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("Value %v -> %s, want %s", tc.v, got, tc.want)
		}
	}
}

// reflectiveResult is the encoder AppendJSON replaced, kept as its
// reference: the wire shape as a tagged struct handed to encoding/json,
// every cell through storage.Value.MarshalJSON.
type reflectiveResult struct {
	Count   int                `json:"count"`
	Columns []reflectiveColumn `json:"columns,omitempty"`
	Rows    *[][]storage.Value `json:"rows,omitempty"`
	Aggs    []storage.Value    `json:"aggs,omitempty"`
	Stats   ExecStats          `json:"stats"`
}

type reflectiveColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func reflectiveEncode(t *testing.T, r *Result) []byte {
	t.Helper()
	w := reflectiveResult{Count: r.Count, Aggs: r.Aggs, Stats: r.Stats}
	for i, name := range r.Columns {
		w.Columns = append(w.Columns, reflectiveColumn{Name: name, Type: r.columnType(i)})
	}
	if len(r.Columns) > 0 {
		rows := r.Rows
		if rows == nil {
			rows = [][]storage.Value{}
		}
		w.Rows = &rows
	}
	out, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAppendJSONMatchesReflectiveEncoder holds the append-style encoder to
// the reflective one byte for byte, over every shape and every cell that
// encoding/json treats specially.
func TestAppendJSONMatchesReflectiveEncoder(t *testing.T) {
	str, flt, i64 := storage.StringValue, storage.FloatValue, storage.IntValue
	cases := map[string]*Result{
		"count only": {Count: 12, Aggs: []storage.Value{i64(12)},
			Stats: ExecStats{RowsScanned: 4096, RowsSkipped: 1 << 20, RowsCovered: 3, ZonesProbed: 17, SkippersUsed: 1}},
		"sharded stats": {Count: 1, Aggs: []storage.Value{i64(1)},
			Stats: ExecStats{RowsScanned: 9, ShardsScanned: 1, ShardsPruned: 3}},
		"shards scanned only": {Stats: ExecStats{ShardsScanned: 2}},
		"aggs with non-finite floats": {Count: 3, Aggs: []storage.Value{
			flt(math.NaN()), flt(math.Inf(1)), flt(math.Inf(-1)), flt(math.Copysign(0, -1)), flt(1e21), flt(1e-7), flt(123456789.125),
			flt(1e20), flt(-1e-6), flt(5e-324), flt(math.MaxFloat64), storage.NullValue(storage.Float64)}},
		"empty projection":   {Columns: []string{"id"}, Types: []storage.Type{storage.Int64}},
		"empty non-nil rows": {Columns: []string{"id"}, Types: []storage.Type{storage.Int64}, Rows: [][]storage.Value{}},
		"int extremes": {Count: 2, Columns: []string{"v"}, Types: []storage.Type{storage.Int64},
			Rows: [][]storage.Value{{i64(math.MinInt64)}, {i64(math.MaxInt64)}}},
		"strings": {Count: 1, Columns: []string{`na"me`, "<b>&", "ü\u2028"},
			Types: []storage.Type{storage.String, storage.String, storage.String},
			Rows: [][]storage.Value{
				{str(""), str(`quote " backslash \ slash /`), str("tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f")},
				{str("<script>&amp;</script>"), str("héllo wörld — 日本語 🎉"), str("sep\u2028para\u2029end")},
				{str("bad\xff\xfeutf8\xc3"), str("\xe2\x80"), storage.NullValue(storage.String)},
			}},
		"untyped columns fall back to the first row": {Count: 1, Columns: []string{"a", "b", "c"},
			Rows: [][]storage.Value{{i64(1), flt(2.5), str("x")}}},
		"untyped empty": {Columns: []string{"a"}},
		"projection beside aggs": {Count: 1, Columns: []string{"a"}, Types: []storage.Type{storage.Float64},
			Rows: [][]storage.Value{{flt(0.1)}}, Aggs: []storage.Value{i64(7), storage.NullValue(storage.Int64)}},
	}
	for name, r := range cases {
		want := reflectiveEncode(t, r)
		if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON drifted from the reflective encoder\n got: %s\nwant: %s", name, got, want)
		}
		// Appending extends dst in place; MarshalJSON is the same bytes.
		if got := r.AppendJSON([]byte("xy")); !bytes.Equal(got[2:], want) || string(got[:2]) != "xy" {
			t.Errorf("%s: AppendJSON onto a prefix: %s", name, got)
		}
		if got, err := json.Marshal(r); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: json.Marshal: %s (%v)\nwant: %s", name, got, err, want)
		}
	}

	// Engine-produced results too, skipper and shard stats included.
	e := jsonTable(t)
	for _, q := range []Query{
		{Select: []string{"id", "price", "city"}, OrderBy: "price", OrderDesc: true, Limit: 2},
		{Aggs: []Agg{{Kind: Avg, Col: "price"}, {Kind: Max, Col: "city"}, {Kind: CountCol, Col: "price"}}},
		{GroupBy: "city", Aggs: []Agg{{Kind: Sum, Col: "price"}}},
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.AppendJSON(nil), reflectiveEncode(t, res); !bytes.Equal(got, want) {
			t.Errorf("engine result drifted\n got: %s\nwant: %s", got, want)
		}
	}
}

// FuzzAppendJSONString holds the string escaper to encoding/json on
// arbitrary bytes (invalid UTF-8 included).
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `"\`, "<>&", "\u2028\u2029", "\xff", "a\x00b", "日本語", "\xe2\x80", "\xf0\x9f\x8e"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := storage.AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	})
}

// TestWireCarriesEveryCostColumn sets each wire-tagged column of the cost
// record to a distinct value and reads the result back as a client does,
// through the hand parser and encoding/json alike: a column added to
// obs.Cost with a wire tag cannot be left off either side of the wire,
// and one tagged "-" stays off it.
func TestWireCarriesEveryCostColumn(t *testing.T) {
	var r Result
	sv := reflect.ValueOf(&r.Stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(10 + i))
	}
	enc := r.AppendJSON(nil)
	d, err := proto.DecodeResponse(append(append([]byte(`{"ok":true,"result":`), enc...), '}'))
	if err != nil || d.Result == nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	var reflective proto.Result
	if err := json.Unmarshal(enc, &reflective); err != nil {
		t.Fatal(err)
	}
	for path, got := range map[string]ExecStats{"DecodeResponse": d.Result.Stats, "encoding/json": reflective.Stats} {
		gv := reflect.ValueOf(got)
		for i := 0; i < gv.NumField(); i++ {
			f := gv.Type().Field(i)
			want := sv.Field(i).Int()
			if f.Tag.Get("json") == "-" {
				want = 0
			}
			if gv.Field(i).Int() != want {
				t.Errorf("%s: %s = %d over the wire, want %d (%s)", path, f.Name, gv.Field(i).Int(), want, enc)
			}
		}
	}
}
