package engine

import (
	"sort"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func TestOrderByAscDesc(t *testing.T) {
	tb := buildTable(t, 500, 70)
	for _, policy := range []Policy{PolicyNone, PolicyAdaptive} {
		e := newEngine(t, tb, policy)
		res, err := e.Query(Query{
			Where:   expr.And(intPred("a", expr.LT, 300)),
			Select:  []string{"b", "a"},
			OrderBy: "b",
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Count != 300 {
			t.Fatalf("count=%d", res.Count)
		}
		// Non-null b values ascend; NULLs trail.
		sawNull := false
		var prev int64
		havePrev := false
		for _, row := range res.Rows {
			if row[0].IsNull() {
				sawNull = true
				continue
			}
			if sawNull {
				t.Fatal("non-null after null")
			}
			if havePrev && row[0].Int() < prev {
				t.Fatalf("not ascending: %d after %d", row[0].Int(), prev)
			}
			prev, havePrev = row[0].Int(), true
		}

		res, err = e.Query(Query{
			Where:     expr.And(intPred("a", expr.LT, 300)),
			Select:    []string{"b"},
			OrderBy:   "b",
			OrderDesc: true,
			Limit:     10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 {
			t.Fatalf("limit rows=%d", len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].IsNull() || res.Rows[i][0].IsNull() {
				continue
			}
			if res.Rows[i-1][0].Int() < res.Rows[i][0].Int() {
				t.Fatalf("not descending: %v", res.Rows)
			}
		}
	}
}

func TestOrderByTopKMatchesFullSort(t *testing.T) {
	tb := buildTable(t, 400, 71)
	e := newEngine(t, tb, PolicyStatic)
	full, err := e.Query(Query{Select: []string{"a"}, OrderBy: "f"})
	if err != nil {
		t.Fatal(err)
	}
	top, err := e.Query(Query{Select: []string{"a"}, OrderBy: "f", Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows) != 7 {
		t.Fatalf("rows=%d", len(top.Rows))
	}
	for i := range top.Rows {
		if !top.Rows[i][0].Equal(full.Rows[i][0]) {
			t.Fatalf("row %d: %v vs %v", i, top.Rows[i][0], full.Rows[i][0])
		}
	}
	// Full sort matches a reference sort by f (stable on ties).
	colF, _ := tb.Column("f")
	want := make([]int, tb.NumRows())
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool {
		return colF.Vec().At(want[i]) < colF.Vec().At(want[j])
	})
	colA, _ := tb.Column("a")
	for i, r := range want {
		if !full.Rows[i][0].Equal(colA.Value(r)) {
			t.Fatalf("full sort row %d wrong", i)
		}
	}
}

func TestOrderByStringColumn(t *testing.T) {
	tb := buildTable(t, 300, 72)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{Select: []string{"s"}, OrderBy: "s", Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Str() > res.Rows[i][0].Str() {
			t.Fatalf("strings not sorted: %v", res.Rows)
		}
	}
}

func TestOrderByErrors(t *testing.T) {
	tb := buildTable(t, 50, 73)
	e := newEngine(t, tb, PolicyNone)
	if _, err := e.Query(Query{Select: []string{"a"}, OrderBy: "missing"}); err == nil {
		t.Fatal("missing order column accepted")
	}
	if _, err := e.Query(Query{OrderBy: "a"}); err == nil {
		t.Fatal("ORDER BY without projection accepted")
	}
	if _, err := e.Query(Query{GroupBy: "s", Select: []string{"s"}, OrderBy: "a"}); err == nil {
		t.Fatal("ORDER BY with GROUP BY accepted")
	}
	// Aggregates combine with ORDER BY projections... they do not (SQL
	// would require GROUP BY); the engine computes them over the full
	// match set, which is still well-defined. Just ensure no panic.
	if _, err := e.Query(Query{Select: []string{"a"}, OrderBy: "a", Aggs: []Agg{{Kind: CountStar}}}); err != nil {
		t.Fatalf("agg + order: %v", err)
	}
}

func TestOrderBySQLRoundTrip(t *testing.T) {
	tb := buildTable(t, 100, 74)
	e := newEngine(t, tb, PolicyAdaptive)
	_ = e
	res, err := e.Query(Query{
		Where:   expr.And(expr.MustPred("s", expr.EQ, storage.StringValue("cat"))),
		Select:  []string{"a"},
		OrderBy: "a", OrderDesc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Int() < res.Rows[i][0].Int() {
			t.Fatal("not descending")
		}
	}
}

func TestOrderByUnsealedStringDict(t *testing.T) {
	// Without EnableSkipping the dictionary stays insertion-ordered;
	// ordering must still be by string value.
	tb := table.MustNew("t", table.Schema{{Name: "s", Type: storage.String}})
	for _, w := range []string{"pear", "apple", "zebra", "mango"} {
		if err := tb.AppendRow(storage.StringValue(w)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(tb, Options{Policy: PolicyNone})
	res, err := e.Query(Query{Select: []string{"s"}, OrderBy: "s"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"apple", "mango", "pear", "zebra"}
	for i, w := range want {
		if res.Rows[i][0].Str() != w {
			t.Fatalf("rows=%v", res.Rows)
		}
	}
}

func TestGroupByUnsealedStringDict(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "s", Type: storage.String}})
	for _, w := range []string{"pear", "apple", "pear", "mango"} {
		if err := tb.AppendRow(storage.StringValue(w)); err != nil {
			t.Fatal(err)
		}
	}
	e := New(tb, Options{Policy: PolicyNone})
	res, err := e.Query(Query{GroupBy: "s", Aggs: []Agg{{Kind: CountStar}}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"apple", "mango", "pear"}
	for i, w := range want {
		if res.Rows[i][0].Str() != w {
			t.Fatalf("rows=%v", res.Rows)
		}
	}
}
