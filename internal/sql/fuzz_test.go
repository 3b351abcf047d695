package sql

import (
	"context"
	"testing"

	"adskip/internal/engine"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// fuzzSeeds is shared by FuzzParse and FuzzExec: hand-picked parser edge
// cases plus the example queries the demo REPL documents (adapted to the
// fuzz table's column names), so mutation starts from realistic SQL.
var fuzzSeeds = []string{
	"SELECT * FROM t",
	"SELECT COUNT(*), SUM(a) FROM t WHERE a BETWEEN 1 AND 2 GROUP BY b LIMIT 3",
	"SELECT a FROM t WHERE (a < 1 OR a > 2) AND b IS NOT NULL ORDER BY a DESC",
	"EXPLAIN SELECT a FROM t WHERE s IN ('x', 'it''s') AND f >= -2.5e3",
	"SELECT FROM WHERE AND",
	"SELECT 'unterminated",
	"SELECT a FROM t WHERE a = \x00",
	"((((((((((",
	// REPL quickstart examples (see cmd/adskip-demo).
	"SELECT COUNT(*) FROM t WHERE a BETWEEN 1000 AND 2000",
	"SELECT b, COUNT(*) FROM t WHERE (a < 100 OR a > 900) GROUP BY b LIMIT 5",
	"EXPLAIN SELECT COUNT(*) FROM t WHERE a < 1000",
	"EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE a < 1000",
	"SELECT MIN(a), MAX(a), AVG(f) FROM t WHERE s = 'oslo'",
	"SELECT a, f FROM t WHERE f IS NULL ORDER BY a LIMIT 10",
}

// FuzzParse exercises the lexer and parser with arbitrary input: they must
// never panic, and any statement that parses must render to a canonical
// form that re-parses to itself.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		rendered := stmt.String()
		stmt2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", rendered, err)
		}
		if stmt2.String() != rendered {
			t.Fatalf("unstable canonical form: %q -> %q", rendered, stmt2.String())
		}
	})
}

// fuzzExecSeeds add, to the shared seeds, the predicate and result shapes
// skipping can get wrong on the fuzz table's nullable f and dictionary s
// columns: range / BETWEEN / IN / IS NULL, ORDER BY … LIMIT, GROUP BY.
var fuzzExecSeeds = []string{
	"SELECT COUNT(*) FROM t WHERE f > 10.5 AND f <= 99",
	"SELECT COUNT(*), SUM(f), MIN(f), MAX(f) FROM t WHERE f BETWEEN 20 AND 60",
	"SELECT a, f FROM t WHERE f BETWEEN 100 AND 140 AND a IN (3, 5, 96)",
	"SELECT COUNT(*), MIN(a) FROM t WHERE f IS NULL",
	"SELECT COUNT(f), AVG(f) FROM t WHERE f IS NOT NULL AND a < 50",
	"SELECT a, f, s FROM t WHERE s IN ('oslo', 'cairo') AND f < 30 ORDER BY f DESC LIMIT 7",
	"SELECT a, s FROM t WHERE s BETWEEN 'cairo' AND 'oslo' ORDER BY a LIMIT 20",
	"SELECT a, f FROM t WHERE f IS NULL OR f > 160 ORDER BY a DESC, f LIMIT 12",
	"SELECT s, COUNT(*), SUM(a), MAX(f) FROM t WHERE f >= 85.25 GROUP BY s",
	"SELECT a, COUNT(*) FROM t WHERE s = 'rome' AND f IS NOT NULL GROUP BY a LIMIT 9",
	"SELECT f FROM t WHERE a = 96 LIMIT 3",
	// w is the one BIGINT column stored as 8-byte codes (a and s are 4-byte).
	"SELECT COUNT(*), MIN(w), MAX(w) FROM t WHERE w BETWEEN -10 AND 40",
	"SELECT a, w FROM t WHERE w < 0 OR w > 4294967290 ORDER BY w DESC LIMIT 5",
	"SELECT w, COUNT(*), SUM(a) FROM t WHERE a < 30 AND w >= 12 GROUP BY w LIMIT 6",
}

// fuzzEngine loads the fuzz table — a cyclic BIGINT a, a sorted nullable
// DOUBLE f, a three-word dictionary s, and a second cyclic BIGINT w whose
// first row is negative and whose row 300 lies past 2^32, 512 rows — into a
// fresh engine with skipping enabled on every column. a and s stay 4-byte
// code vectors; the two seed rows force w to 8-byte codes (f is by type).
func fuzzEngine(f *testing.F, opts engine.Options) *engine.Engine {
	tb, err := table.New("t", table.Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "s", Type: storage.String},
		{Name: "w", Type: storage.Int64},
	})
	if err != nil {
		f.Fatal(err)
	}
	words := []string{"oslo", "rome", "cairo"}
	for i := 0; i < 512; i++ {
		fv := storage.FloatValue(float64(i) / 3)
		if i%17 == 0 {
			fv = storage.NullValue(storage.Float64)
		}
		wv := int64(i % 89 * 3)
		switch i {
		case 0:
			wv = -7
		case 300:
			wv = 1<<32 + 5
		}
		err := tb.AppendRow(storage.IntValue(int64(i%97)), fv,
			storage.StringValue(words[i%len(words)]), storage.IntValue(wv))
		if err != nil {
			f.Fatal(err)
		}
	}
	for name, width := range map[string]int{"a": 4, "f": 8, "s": 4, "w": 8} {
		if col, _ := tb.Column(name); col.Vec().Width() != width {
			f.Fatalf("column %s holds %d-byte codes, want %d", name, col.Vec().Width(), width)
		}
	}
	e := engine.New(tb, opts)
	if err := e.EnableSkipping(); err != nil {
		f.Fatal(err)
	}
	return e
}

// FuzzExec drives the full pipeline — lex, parse, plan, execute — with
// arbitrary SQL against the same table under every skipping policy.
// Nothing may panic, no statement may return a nil result without an
// error, and every policy must refuse a statement exactly when
// PolicyNone refuses it: a refusal is an answer too. Answers themselves
// are the torture oracle's (FuzzTorture and the TestTorture_* families in
// the adskip package), which holds every policy to an evaluator of its
// own rows; this target reaches the statements its generator does not
// write. Zones are small enough that 512 rows make 8–16 of them, and the
// adaptive zonemap splits and merges as the fuzzer's statements feed it.
func FuzzExec(f *testing.F) {
	policies := []engine.Options{
		{Policy: engine.PolicyNone},
		{Policy: engine.PolicyStatic, ZoneSize: 32},
		{Policy: engine.PolicyImprint, ZoneSize: 32},
		{Policy: engine.PolicyAdaptive, ZoneSize: 64, MinZoneRows: 8},
	}
	engines := make([]*engine.Engine, len(policies))
	for i, opts := range policies {
		engines[i] = fuzzEngine(f, opts)
	}

	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range fuzzExecSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		// Cap pathological inputs; the parser is what we are fuzzing, not
		// gigabyte allocations.
		if len(input) > 1<<12 {
			input = input[:1<<12]
		}
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		var refused error
		for i, e := range engines {
			res, err := ExecParsedContext(context.Background(), e, stmt)
			if err == nil && res == nil {
				t.Fatalf("%q under %s: nil result with nil error", input, policies[i].Policy)
			}
			if i == 0 {
				refused = err
			} else if (err == nil) != (refused == nil) {
				t.Fatalf("%q under %s: err=%v, under none err=%v", input, policies[i].Policy, err, refused)
			}
		}
	})
}
