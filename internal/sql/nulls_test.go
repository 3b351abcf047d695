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

func TestGroupBySQL(t *testing.T) {
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
}

func TestOrderBySQL(t *testing.T) {
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
