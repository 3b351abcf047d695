package sql

import (
	"errors"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func TestParseIsNull(t *testing.T) {
	s, err := Parse("SELECT COUNT(*) FROM t WHERE a IS NULL AND b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Where.Preds) != 2 {
		t.Fatalf("preds=%v", s.Where.Preds)
	}
	if s.Where.Preds[0].Op != expr.IsNull || s.Where.Preds[1].Op != expr.IsNotNull {
		t.Fatalf("ops=%v %v", s.Where.Preds[0].Op, s.Where.Preds[1].Op)
	}
	// Canonical round trip.
	rendered := s.String()
	if rendered != "SELECT COUNT(*) FROM t WHERE a IS NULL AND b IS NOT NULL" {
		t.Fatalf("rendered=%q", rendered)
	}
	if _, err := Parse(rendered); err != nil {
		t.Fatal(err)
	}
}

func TestParseIsNullErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t WHERE a IS",
		"SELECT a FROM t WHERE a IS NOT",
		"SELECT a FROM t WHERE a IS 5",
		"SELECT a FROM t WHERE a IS NOT 5",
	} {
		if _, err := Parse(q); !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: %v", q, err)
		}
	}
}

func TestExecIsNullEndToEnd(t *testing.T) {
	tb := table.MustNew("t", table.Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Float64},
	})
	tb.AppendRow(storage.IntValue(1), storage.FloatValue(1.5))
	tb.AppendRow(storage.IntValue(2), storage.NullValue(storage.Float64))
	tb.AppendRow(storage.IntValue(3), storage.NullValue(storage.Float64))
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(e, "SELECT COUNT(*) FROM t WHERE b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(storage.IntValue(2)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	res, err = Exec(e, "SELECT a FROM t WHERE b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("rows=%v", res.Rows)
	}
}

func TestGroupBySQL(t *testing.T) {
	tb := table.MustNew("t", table.Schema{
		{Name: "city", Type: storage.String},
		{Name: "amt", Type: storage.Int64},
	})
	for _, r := range []struct {
		c string
		a int64
	}{{"b", 1}, {"a", 2}, {"b", 3}, {"a", 4}, {"c", 5}} {
		tb.AppendRow(storage.StringValue(r.c), storage.IntValue(r.a))
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(e, "SELECT city, COUNT(*), SUM(amt) FROM t WHERE amt > 1 GROUP BY city LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows=%v", res.Rows)
	}
	if res.Rows[0][0].Str() != "a" || res.Rows[0][2].Int() != 6 {
		t.Fatalf("group a=%v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "b" || res.Rows[1][1].Int() != 1 {
		t.Fatalf("group b=%v", res.Rows[1])
	}
	// Round trip.
	s, err := Parse("SELECT city, COUNT(*) FROM t GROUP BY city")
	if err != nil || s.GroupBy != "city" {
		t.Fatalf("parse: %v %q", err, s.GroupBy)
	}
	if s.String() != "SELECT city, COUNT(*) FROM t GROUP BY city" {
		t.Fatalf("render=%q", s.String())
	}
	// Errors.
	if _, err := Parse("SELECT a, SUM(b) FROM t"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("mix without group: %v", err)
	}
	if _, err := Parse("SELECT a FROM t GROUP BY"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("dangling group by: %v", err)
	}
	if _, err := Exec(e, "SELECT * FROM t GROUP BY city"); err == nil {
		t.Fatal("star with group accepted")
	}
}

func TestExplainSQL(t *testing.T) {
	tb := table.MustNew("t", table.Schema{
		{Name: "v", Type: storage.Int64},
	})
	for i := int64(0); i < 1000; i++ {
		tb.AppendRow(storage.IntValue(i))
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive,
		ZoneSize: 100, MinZoneRows: 10})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(e, "EXPLAIN SELECT COUNT(*) FROM t WHERE v BETWEEN 100 AND 199")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 || res.Columns[0] != "plan" {
		t.Fatalf("rows=%v", res.Rows)
	}
	joined := ""
	for _, row := range res.Rows {
		joined += row[0].Str() + "\n"
	}
	for _, want := range []string{"scan table", "adaptive skipper", "rows skippable", "predicate on \"v\""} {
		if !strings.Contains(joined, want) {
			t.Fatalf("plan missing %q:\n%s", want, joined)
		}
	}
	// EXPLAIN with no predicates.
	res, err = Exec(e, "EXPLAIN SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if strings.Contains(row[0].Str(), "full scan") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-predicate plan: %v", res.Rows)
	}
	// Round trip keeps the prefix.
	s, err := Parse("EXPLAIN SELECT v FROM t LIMIT 1")
	if err != nil || !s.Explain {
		t.Fatalf("parse explain: %v %v", err, s.Explain)
	}
	if s.String() != "EXPLAIN SELECT v FROM t LIMIT 1" {
		t.Fatalf("render=%q", s.String())
	}
}

func TestOrSQL(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	for i := int64(0); i < 100; i++ {
		tb.AppendRow(storage.IntValue(i))
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(e, "SELECT COUNT(*) FROM t WHERE (v < 10 OR v >= 95)")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(storage.IntValue(15)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	// OR combined with AND.
	res, err = Exec(e, "SELECT COUNT(*) FROM t WHERE (v < 10 OR v >= 95) AND v <> 5")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(storage.IntValue(14)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	// Plain parenthesized predicate.
	res, err = Exec(e, "SELECT COUNT(*) FROM t WHERE (v < 10)")
	if err != nil || !res.Aggs[0].Equal(storage.IntValue(10)) {
		t.Fatalf("count=%v err=%v", res.Aggs, err)
	}
	// Round trip.
	s, err := Parse("SELECT COUNT(*) FROM t WHERE (v < 10 OR v = 50)")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "SELECT COUNT(*) FROM t WHERE (v < 10 OR v = 50)" {
		t.Fatalf("render=%q", s.String())
	}
	// Errors.
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE v < 10 OR v = 50"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("bare OR: %v", err)
	}
	if _, err := Exec(e, "SELECT COUNT(*) FROM t WHERE (v < 10 OR x = 1)"); err == nil {
		t.Fatal("cross-column OR accepted")
	}
}

func TestOrderBySQL(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	for _, v := range []int64{5, 1, 9, 3} {
		tb.AppendRow(storage.IntValue(v))
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyNone})
	res, err := Exec(e, "SELECT v FROM t ORDER BY v DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 9 || res.Rows[1][0].Int() != 5 {
		t.Fatalf("rows=%v", res.Rows)
	}
	res, err = Exec(e, "SELECT v FROM t ORDER BY v ASC")
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("asc rows=%v err=%v", res.Rows, err)
	}
	s, err := Parse("SELECT v FROM t ORDER BY v DESC LIMIT 2")
	if err != nil || s.OrderBy != "v" || !s.OrderDesc {
		t.Fatalf("parse: %+v %v", s, err)
	}
	if s.String() != "SELECT v FROM t ORDER BY v DESC LIMIT 2" {
		t.Fatalf("render=%q", s.String())
	}
	if _, err := Parse("SELECT v FROM t ORDER v"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("missing BY: %v", err)
	}
}
