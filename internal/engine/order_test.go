package engine

import (
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
)

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
