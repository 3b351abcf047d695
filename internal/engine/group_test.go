package engine

import (
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func groupTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("t", testSchema())
	rows := []struct {
		a int64
		b interface{}
		f float64
		s string
	}{
		{1, int64(10), 1.0, "x"},
		{2, int64(20), 2.0, "y"},
		{3, nil, 3.0, "x"},
		{4, int64(40), 4.0, "y"},
		{5, int64(50), 5.0, "x"},
		{6, int64(60), 6.0, "z"},
	}
	for _, r := range rows {
		b := storage.NullValue(storage.Int64)
		if r.b != nil {
			b = storage.IntValue(r.b.(int64))
		}
		if err := tb.AppendRow(storage.IntValue(r.a), b, storage.FloatValue(r.f), storage.StringValue(r.s)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestGroupByString(t *testing.T) {
	tb := groupTable(t)
	for _, policy := range []Policy{PolicyNone, PolicyStatic, PolicyAdaptive} {
		e := newEngine(t, tb, policy)
		res, err := e.Query(Query{
			GroupBy: "s",
			Aggs:    []Agg{{Kind: CountStar}, {Kind: Sum, Col: "f"}},
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if len(res.Columns) != 3 || res.Columns[0] != "s" || res.Columns[1] != "COUNT(*)" {
			t.Fatalf("columns=%v", res.Columns)
		}
		// Groups in key order: x, y, z.
		if len(res.Rows) != 3 {
			t.Fatalf("%v: rows=%v", policy, res.Rows)
		}
		wantKeys := []string{"x", "y", "z"}
		wantCounts := []int64{3, 2, 1}
		wantSums := []float64{9, 6, 6}
		for i := range wantKeys {
			if res.Rows[i][0].Str() != wantKeys[i] {
				t.Fatalf("row %d key=%v", i, res.Rows[i][0])
			}
			if res.Rows[i][1].Int() != wantCounts[i] {
				t.Fatalf("row %d count=%v", i, res.Rows[i][1])
			}
			if res.Rows[i][2].Float() != wantSums[i] {
				t.Fatalf("row %d sum=%v", i, res.Rows[i][2])
			}
		}
	}
}

func TestGroupBySelectKeyOnlyIsDistinct(t *testing.T) {
	tb := groupTable(t)
	e := newEngine(t, tb, PolicyNone)
	res, err := e.Query(Query{Select: []string{"s"}, GroupBy: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || len(res.Rows[0]) != 1 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestGroupByLimit(t *testing.T) {
	tb := groupTable(t)
	e := newEngine(t, tb, PolicyNone)
	res, err := e.Query(Query{GroupBy: "s", Aggs: []Agg{{Kind: CountStar}}, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "x" {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestGroupByErrors(t *testing.T) {
	tb := groupTable(t)
	e := newEngine(t, tb, PolicyNone)
	if _, err := e.Query(Query{GroupBy: "missing"}); err == nil {
		t.Fatal("missing group column accepted")
	}
	if _, err := e.Query(Query{GroupBy: "s", Select: []string{"a"}}); err == nil {
		t.Fatal("non-key select with group accepted")
	}
}

func TestGroupByUnsatisfiableWhere(t *testing.T) {
	tb := groupTable(t)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where:   expr.And(intPred("a", expr.GT, 100), intPred("a", expr.LT, 50)),
		GroupBy: "s",
		Aggs:    []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(res.Columns) != 2 {
		t.Fatalf("rows=%v cols=%v", res.Rows, res.Columns)
	}
}

func TestGroupByIntKeyLargeTable(t *testing.T) {
	tb := buildTable(t, 2000, 50)
	for _, policy := range []Policy{PolicyNone, PolicyAdaptive} {
		e := newEngine(t, tb, policy)
		res, err := e.Query(Query{
			Where:   expr.And(intPred("a", expr.LT, 1000)),
			GroupBy: "s",
			Aggs:    []Agg{{Kind: CountStar}, {Kind: Min, Col: "a"}, {Kind: Max, Col: "a"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check totals.
		total := int64(0)
		for _, row := range res.Rows {
			total += row[1].Int()
			if row[2].Int() > row[3].Int() {
				t.Fatalf("min>max in %v", row)
			}
		}
		if total != 1000 {
			t.Fatalf("%v: group counts sum to %d", policy, total)
		}
	}
}
