package engine_test

import (
	"context"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/shard"
	"adskip/internal/sql"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// TestExplainRejectsWhatQueryRejects holds EXPLAIN to execution's checks:
// for every query shape Query refuses, Explain must refuse it with the same
// error, on one engine, on a 2-shard Manager, and through SQL's EXPLAIN.
func TestExplainRejectsWhatQueryRejects(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "a", Type: storage.Int64}, {Name: "s", Type: storage.String}})
	for i := 0; i < 1000; i++ {
		if err := tb.AppendRow(storage.IntValue(int64(i)), storage.StringValue([]string{"x", "y", "z"}[i%3])); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive})
	if err := eng.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	mgr, err := shard.NewFromTable(tb, shard.Options{Shards: 2, Key: "a"})
	if err != nil {
		t.Fatal(err)
	}
	where := expr.And(expr.MustPred("a", expr.LT, storage.IntValue(500)))
	count := []engine.Agg{{Kind: engine.CountStar}}
	cases := []struct {
		name string
		q    engine.Query
		sql  string
	}{
		{"unknown select column", engine.Query{Where: where, Select: []string{"nosuch"}},
			"SELECT nosuch FROM t WHERE a < 500"},
		{"unknown order column", engine.Query{Where: where, Select: []string{"a"}, OrderBy: "nosuch"},
			"SELECT a FROM t WHERE a < 500 ORDER BY nosuch"},
		{"unknown group column", engine.Query{Where: where, GroupBy: "nosuch", Aggs: count},
			"SELECT COUNT(*) FROM t WHERE a < 500 GROUP BY nosuch"},
		{"order without projection", engine.Query{Where: where, Aggs: count, OrderBy: "a"},
			"SELECT COUNT(*) FROM t WHERE a < 500 ORDER BY a"},
		{"non-group column beside group", engine.Query{Where: where, Select: []string{"a"}, GroupBy: "s", Aggs: count},
			"SELECT a, COUNT(*) FROM t WHERE a < 500 GROUP BY s"},
		{"order with group", engine.Query{Where: where, Select: []string{"s"}, GroupBy: "s", Aggs: count, OrderBy: "s"},
			"SELECT s, COUNT(*) FROM t WHERE a < 500 GROUP BY s ORDER BY s"},
	}
	executors := []struct {
		name string
		e    sql.Executor
	}{{"engine", eng}, {"2 shards", mgr}}
	for _, x := range executors {
		for _, c := range cases {
			_, qerr := x.e.QueryContext(context.Background(), c.q)
			_, xerr := x.e.Explain(c.q)
			if qerr == nil || xerr == nil || qerr.Error() != xerr.Error() {
				t.Errorf("%s, %s: Query err=%v, Explain err=%v", x.name, c.name, qerr, xerr)
			}
			_, qerr = sql.Exec(x.e, c.sql)
			_, xerr = sql.Exec(x.e, "EXPLAIN "+c.sql)
			if qerr == nil || xerr == nil || qerr.Error() != xerr.Error() {
				t.Errorf("%s, SQL %q: err=%v, EXPLAIN err=%v", x.name, c.sql, qerr, xerr)
			}
		}
	}
}
