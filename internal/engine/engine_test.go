package engine

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func testSchema() table.Schema {
	return table.Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
	}
}

// buildTable creates a deterministic 4-column table with some nulls.
func buildTable(t testing.TB, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := table.MustNew("t", testSchema())
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	for i := 0; i < n; i++ {
		a := storage.IntValue(int64(i)) // sorted
		b := storage.Value(storage.IntValue(rng.Int63n(1000)))
		if rng.Intn(20) == 0 {
			b = storage.NullValue(storage.Int64)
		}
		f := storage.FloatValue(rng.NormFloat64() * 50)
		s := storage.StringValue(words[rng.Intn(len(words))])
		if err := tb.AppendRow(a, b, f, s); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// smallZone and smallParts size the skippers of the small tables these
// tests build: 64-row zones, and adaptive zones split to 8-row parts.
const smallZone, smallParts = 64, 8

func newEngine(t testing.TB, tb *table.Table, policy Policy) *Engine {
	t.Helper()
	e := New(tb, Options{Policy: policy, ZoneSize: smallZone, MinZoneRows: smallParts})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	return e
}

func intPred(col string, op expr.Op, vals ...int64) expr.Pred {
	args := make([]storage.Value, len(vals))
	for i, v := range vals {
		args[i] = storage.IntValue(v)
	}
	return expr.MustPred(col, op, args...)
}

func TestSkippingActuallySkips(t *testing.T) {
	tb := buildTable(t, 1000, 3)
	e := newEngine(t, tb, PolicyStatic)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.Between, 100, 199)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 100 {
		t.Fatalf("count=%d", res.Count)
	}
	if res.Stats.RowsSkipped == 0 || res.Stats.ZonesProbed == 0 {
		t.Fatalf("no skipping: %+v", res.Stats)
	}
	if res.Stats.RowsScanned+res.Stats.RowsSkipped+res.Stats.RowsCovered != 1000 {
		t.Fatalf("rows don't add up: %+v", res.Stats)
	}
	if md := e.SkipperMetadata()["a"]; md.Kind != "static" || md.Zones == 0 {
		t.Fatalf("metadata of a: %+v", md)
	}
	// An unordered projection stops at its LIMIT: the IN list's later
	// candidate zones are not read.
	res, err = e.Query(Query{Select: []string{"a"}, Limit: 1, Where: expr.And(intPred("a", expr.In, 5, 500, 900))})
	if err != nil || len(res.Rows) != 1 || res.Stats.RowsScanned != smallZone {
		t.Fatalf("limited projection: %v, %d rows, stats %+v", err, len(res.Rows), res.Stats)
	}
}

func TestAggregatesEmptyResult(t *testing.T) {
	tb := buildTable(t, 100, 4)
	e := newEngine(t, tb, PolicyStatic)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.GT, 10_000)),
		Aggs:  []Agg{{Kind: CountStar}, {Kind: Sum, Col: "b"}, {Kind: Min, Col: "f"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || !res.Aggs[0].Equal(storage.IntValue(0)) {
		t.Fatalf("count: %v", res.Aggs[0])
	}
	if !res.Aggs[1].IsNull() || !res.Aggs[2].IsNull() {
		t.Fatalf("empty SUM/MIN should be NULL: %v %v", res.Aggs[1], res.Aggs[2])
	}
}

func TestUnsatisfiablePredicate(t *testing.T) {
	tb := buildTable(t, 100, 5)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.LT, 10), intPred("a", expr.GT, 50)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || res.Stats.RowsScanned != 0 {
		t.Fatalf("contradiction scanned rows: %+v", res.Stats)
	}
}

func TestAppendRowTypeError(t *testing.T) {
	tb := buildTable(t, 10, 10)
	e := newEngine(t, tb, PolicyStatic)
	err := e.AppendRow(storage.StringValue("wrong"), storage.IntValue(1), storage.FloatValue(1), storage.StringValue("x"))
	if !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("err=%v", err)
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("rejected row skewed the table: %v", err)
	}
	// Sealed dictionary: appending a new word must fail cleanly before any
	// column is written.
	err = e.AppendRow(storage.IntValue(1), storage.IntValue(1), storage.FloatValue(1), storage.StringValue("brand-new-word"))
	if err == nil {
		t.Fatal("new word after seal accepted")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatalf("failed append skewed the table: %v", err)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	tb := buildTable(t, 10, 13)
	e := newEngine(t, tb, PolicyStatic)
	if _, err := e.Query(Query{Where: expr.And(intPred("missing", expr.EQ, 1))}); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing predicate column: %v", err)
	}
	if _, err := e.Query(Query{Select: []string{"missing"}}); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing projection column: %v", err)
	}
	if _, err := e.Query(Query{Aggs: []Agg{{Kind: Sum, Col: "s"}}}); !errors.Is(err, ErrUnsupportedAgg) {
		t.Fatalf("SUM over string: %v", err)
	}
	if _, err := e.Query(Query{Aggs: []Agg{{Kind: CountStar, Col: "a"}}}); !errors.Is(err, ErrUnsupportedAgg) {
		t.Fatalf("COUNT(*) with column: %v", err)
	}
	if _, err := e.Query(Query{Limit: -1}); !errors.Is(err, ErrBadLimit) {
		t.Fatalf("negative limit: %v", err)
	}
	// Type mismatch in predicate.
	bad := expr.And(expr.MustPred("a", expr.EQ, storage.StringValue("x")))
	if _, err := e.Query(Query{Where: bad}); !errors.Is(err, expr.ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
}

func TestEnableSkippingErrors(t *testing.T) {
	tb := buildTable(t, 10, 15)
	e := New(tb, Options{Policy: PolicyStatic})
	if err := e.EnableSkipping("missing"); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("err=%v", err)
	}
	e2 := New(tb, Options{Policy: Policy(99)})
	if err := e2.EnableSkipping("a"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if e.Skipper("a") != nil {
		t.Fatal("skipper registered despite error path")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyNone.String() != "none" || PolicyStatic.String() != "static" || PolicyAdaptive.String() != "adaptive" {
		t.Fatal("policy names")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy renders empty")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Policy
	}{{"none", PolicyNone}, {"static", PolicyStatic}, {"adaptive", PolicyAdaptive}, {"imprint", PolicyImprint}} {
		p, err := ParsePolicy(tc.name)
		if err != nil || p != tc.want || p.String() != tc.name {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", tc.name, p, err, tc.want)
		}
	}
	_, err := ParsePolicy("zonemap")
	if err == nil || !strings.Contains(err.Error(), "none|static|adaptive|imprint") {
		t.Fatalf("unknown policy: err %v, want the valid names", err)
	}
}
