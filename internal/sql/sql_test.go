package sql

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, COUNT(*) FROM t WHERE x >= -3.5 AND s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a", ",", "COUNT", "(", "*", ")", "FROM", "t",
		"WHERE", "x", ">=", "-3.5", "AND", "s", "=", "it's"}
	if len(texts) != len(want) {
		t.Fatalf("tokens %v want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q want %q", i, texts[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("SELECT 'unterminated"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("unterminated: %v", err)
	}
	if _, err := lex("a @ b"); !errors.Is(err, ErrSyntax) {
		t.Fatalf("bad char: %v", err)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT COUNT(*) FROM sales WHERE price BETWEEN 10 AND 20 LIMIT 5;")
	if err != nil {
		t.Fatal(err)
	}
	if s.Table != "sales" || s.Limit != 5 || len(s.Aggs) != 1 || s.Aggs[0].Kind != engine.CountStar {
		t.Fatalf("stmt=%+v", s)
	}
	if len(s.Where.Preds) != 1 || s.Where.Preds[0].Op != expr.Between {
		t.Fatalf("where=%v", s.Where)
	}
}

func TestParseSelectVariants(t *testing.T) {
	cases := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t",
		"SELECT SUM(x), AVG(y), MIN(z), MAX(z), COUNT(z) FROM t",
		"SELECT a FROM t WHERE a = 1 AND b <> 2 AND c < 3 AND d <= 4 AND e > 5 AND f >= 6",
		"SELECT a FROM t WHERE s IN ('x', 'y', 'z')",
		"SELECT a FROM t WHERE f > -2.5e3",
		"SELECT a FROM t WHERE b != 7",
	}
	for _, c := range cases {
		if _, err := Parse(c); err != nil {
			t.Fatalf("%q: %v", c, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT a b FROM t",       // missing comma -> trailing input
		"SELECT a, SUM(b) FROM t", // mixed agg and column
		"SELECT a FROM t WHERE",   // dangling where
		"SELECT a FROM t WHERE a ~ 3",
		"SELECT a FROM t WHERE a = NULL",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a IN ()",
		"SELECT a FROM t LIMIT x",
		"SELECT COUNT(* FROM t",
		"SELECT COUNT FROM t",
		"SELECT a FROM t extra junk",
		"SELECT a FROM t GROUP a",
		"SELECT SUM() FROM t",
		"SELECT a FROM t WHERE (a < 1 OR a ~ 2)",
		"SELECT a FROM t WHERE (a < 1 OR a > 2",
		"SELECT a FROM t WHERE a BETWEEN 1 AND",
		"SELECT a FROM t WHERE a IN 1",
		"SELECT a FROM t WHERE a IN (1, 2",
		"INSERT INTO t VALUES (1)",
	}
	for _, c := range cases {
		if _, err := Parse(c); !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: err=%v (want ErrSyntax)", c, err)
		}
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 LIMIT 3",
		"SELECT COUNT(*), SUM(b) FROM t WHERE a BETWEEN 1 AND 5 AND s IN ('x', 'y')",
		"SELECT MIN(f) FROM t WHERE f > -2.5",
		"SELECT COUNT(*) FROM t WHERE (a < 10)",
	}
	for _, c := range cases {
		s1, err := Parse(c)
		if err != nil {
			t.Fatalf("%q: %v", c, err)
		}
		rendered := s1.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if s2.String() != rendered {
			t.Fatalf("unstable round trip: %q -> %q", rendered, s2.String())
		}
	}
}

func demoEngine(t *testing.T) *engine.Engine {
	t.Helper()
	tb := table.MustNew("sales", table.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "price", Type: storage.Float64},
		{Name: "city", Type: storage.String},
	})
	rows := []struct {
		id    int64
		price float64
		city  string
	}{
		{1, 10.5, "oslo"}, {2, 20.0, "rome"}, {3, 5.25, "oslo"},
		{4, 99.0, "cairo"}, {5, 15.0, "rome"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(storage.IntValue(r.id), storage.FloatValue(r.price), storage.StringValue(r.city)); err != nil {
			t.Fatal(err)
		}
	}
	e := engine.New(tb, engine.Options{Policy: engine.PolicyAdaptive})
	if err := e.EnableSkipping(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExecEndToEnd(t *testing.T) {
	e := demoEngine(t)
	res, err := Exec(e, "SELECT COUNT(*), SUM(price) FROM sales WHERE city = 'oslo'")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(storage.IntValue(2)) {
		t.Fatalf("count=%v", res.Aggs[0])
	}
	if !res.Aggs[1].Equal(storage.FloatValue(15.75)) {
		t.Fatalf("sum=%v", res.Aggs[1])
	}
}

func TestExecIntLiteralCoercedToFloat(t *testing.T) {
	e := demoEngine(t)
	res, err := Exec(e, "SELECT COUNT(*) FROM sales WHERE price >= 15")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aggs[0].Equal(storage.IntValue(3)) { // 20, 99, 15
		t.Fatalf("count=%v", res.Aggs[0])
	}
}

func TestExecSelectStarAndLimit(t *testing.T) {
	e := demoEngine(t)
	res, err := Exec(e, "SELECT * FROM sales WHERE id > 1 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if res.Rows[0][0].Int() != 2 || res.Rows[0][2].Str() != "rome" {
		t.Fatalf("row0=%v", res.Rows[0])
	}
}

func TestExecPlanningErrors(t *testing.T) {
	e := demoEngine(t)
	if _, err := Exec(e, "SELECT COUNT(*) FROM missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := Exec(e, "SELECT COUNT(*) FROM sales WHERE nope = 1"); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing column: %v", err)
	}
	if _, err := Exec(e, "SELECT COUNT(*) FROM sales WHERE city = 3"); !errors.Is(err, expr.ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
	if _, err := Exec(e, "SELECT nope FROM sales"); !errors.Is(err, table.ErrNoSuchColumn) {
		t.Fatalf("missing projection: %v", err)
	}
	if _, err := Exec(e, "SELECT SUM(city) FROM sales"); !errors.Is(err, engine.ErrUnsupportedAgg) {
		t.Fatalf("sum string: %v", err)
	}
	if _, err := Exec(e, "SELECT COUNT(*) FROM sales WHERE (id < 1 OR price = 2)"); err == nil {
		t.Fatal("cross-column OR accepted")
	}
	for _, q := range []string{"SELECT * FROM sales GROUP BY city", "SELECT FROM sales"} {
		if _, err := Exec(e, q); !errors.Is(err, ErrSyntax) {
			t.Fatalf("%q: %v", q, err)
		}
	}
}

// Property: the parser never panics and either errors or yields a
// statement that renders and re-parses to the same canonical form.
func TestQuickParserTotal(t *testing.T) {
	f := func(raw string) bool {
		s := raw
		if len(s) > 200 {
			s = s[:200]
		}
		stmt, err := Parse(s)
		if err != nil {
			return true
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			return false
		}
		return stmt2.String() == rendered
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Also fuzz with SQL-ish fragments to hit deeper parser paths.
	frags := []string{"SELECT", "FROM", "WHERE", "a", "*", ",", "(", ")",
		"COUNT", "BETWEEN", "AND", "IN", "'x'", "1", "2.5", "<=", "=", "LIMIT"}
	g := func(seed int64) bool {
		r := seed
		var sb strings.Builder
		for k := 0; k < 12; k++ {
			r = r*6364136223846793005 + 1442695040888963407
			idx := int(uint64(r)>>33) % len(frags)
			sb.WriteString(frags[idx])
			sb.WriteByte(' ')
		}
		stmt, err := Parse(sb.String())
		if err != nil {
			return true
		}
		_, err = Parse(stmt.String())
		return err == nil
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Fatal(err)
	}
}
