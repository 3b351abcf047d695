package sql

import (
	"errors"
	"strings"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func TestParseExplainAnalyze(t *testing.T) {
	s, err := Parse("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE v < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Explain || !s.Analyze {
		t.Fatalf("flags: explain=%v analyze=%v", s.Explain, s.Analyze)
	}
	if got := s.String(); got != "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE v < 10" {
		t.Fatalf("render = %q", got)
	}
	// Round trip: rendering reparses to the same flags.
	s2, err := Parse(s.String())
	if err != nil || !s2.Explain || !s2.Analyze {
		t.Fatalf("round trip: %v %+v", err, s2)
	}
	// Plain EXPLAIN keeps Analyze off.
	s3, err := Parse("EXPLAIN SELECT COUNT(*) FROM t")
	if err != nil || s3.Analyze {
		t.Fatalf("plain explain: %v analyze=%v", err, s3.Analyze)
	}
	// ANALYZE without EXPLAIN is not a statement starter.
	if _, err := Parse("ANALYZE SELECT COUNT(*) FROM t"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("bare ANALYZE: %v", err)
	}
}

func TestExecExplainAnalyzeSQL(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "v", Type: storage.Int64}})
	for i := int64(0); i < 1000; i++ {
		tb.AppendRow(storage.IntValue(i))
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive,
		ZoneSize: 100, MinZoneRows: 10})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	res, err := Exec(e, "EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE v BETWEEN 100 AND 199")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Columns[0] != "plan" {
		t.Fatalf("rows=%v cols=%v", res.Rows, res.Columns)
	}
	var joined strings.Builder
	for _, row := range res.Rows {
		joined.WriteString(row[0].Str())
		joined.WriteString("\n")
	}
	// EXPLAIN ANALYZE really executed: actuals, phases, and the pruning
	// summary are all present.
	for _, want := range []string{
		"EXPLAIN ANALYZE: table \"t\" (1000 rows), 100 rows matched",
		"phase plan", "phase probe", "phase scan", "phase feedback",
		"predicate on \"v\"",
		"pruning:",
	} {
		if !strings.Contains(joined.String(), want) {
			t.Fatalf("plan missing %q:\n%s", want, joined.String())
		}
	}
}
