package engine

import (
	"math/rand"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// evalPredRow evaluates one predicate on one row with SQL three-valued
// semantics collapsed to boolean (NULL comparisons are false; IS NULL /
// IS NOT NULL test the null flag).
func evalPredRow(t *testing.T, tb *table.Table, p expr.Pred, row int) bool {
	t.Helper()
	col, err := tb.Column(p.Col)
	if err != nil {
		t.Fatal(err)
	}
	isNull := col.IsNull(row)
	switch p.Op {
	case expr.IsNull:
		return isNull
	case expr.IsNotNull:
		return !isNull
	}
	if isNull {
		return false
	}
	v := col.Value(row)
	cmp := func(arg storage.Value) int {
		switch v.Type() {
		case storage.Int64:
			switch {
			case v.Int() < arg.Int():
				return -1
			case v.Int() > arg.Int():
				return 1
			}
			return 0
		case storage.Float64:
			switch {
			case v.Float() < arg.Float():
				return -1
			case v.Float() > arg.Float():
				return 1
			}
			return 0
		case storage.String:
			switch {
			case v.Str() < arg.Str():
				return -1
			case v.Str() > arg.Str():
				return 1
			}
			return 0
		}
		t.Fatalf("bad type %v", v.Type())
		return 0
	}
	switch p.Op {
	case expr.EQ:
		return cmp(p.Args[0]) == 0
	case expr.NE:
		return cmp(p.Args[0]) != 0
	case expr.LT:
		return cmp(p.Args[0]) < 0
	case expr.LE:
		return cmp(p.Args[0]) <= 0
	case expr.GT:
		return cmp(p.Args[0]) > 0
	case expr.GE:
		return cmp(p.Args[0]) >= 0
	case expr.Between:
		return cmp(p.Args[0]) >= 0 && cmp(p.Args[1]) <= 0
	case expr.In:
		for _, a := range p.Args {
			if cmp(a) == 0 {
				return true
			}
		}
		return false
	}
	t.Fatalf("bad op %v", p.Op)
	return false
}

// referenceEval computes the exact qualifying row set naively.
func referenceEval(t *testing.T, tb *table.Table, where expr.Conj) []int {
	t.Helper()
	var rows []int
	for r := 0; r < tb.NumRows(); r++ {
		ok := true
		for _, p := range where.Preds {
			if !evalPredRow(t, tb, p, r) {
				ok = false
				break
			}
		}
		if ok {
			rows = append(rows, r)
		}
	}
	return rows
}

// buildRefTable is buildTable plus a nullable Float64 column g whose values
// span the whole float domain: every eighth row NULL, the rest a mix of
// ordinary negatives and positives, ±1e300-scale magnitudes and zeros.
// Float codes of negatives sit at the far end of int64 from those of
// positives, so predicates over g drive the filter and refine kernels with
// intervals that the small-int columns never produce.
func buildRefTable(t testing.TB, n int, seed int64) *table.Table {
	t.Helper()
	src := buildTable(t, n, seed)
	tb := table.MustNew("t", append(testSchema(), table.ColumnSpec{Name: "g", Type: storage.Float64}))
	rng := rand.New(rand.NewSource(seed + 1))
	for r := 0; r < n; r++ {
		row, err := src.Row(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.AppendRow(append(row, randomG(rng, true))...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// randomG draws a value of column g, or (never NULL) a predicate argument
// from the same distribution so that bounds land on stored values.
func randomG(rng *rand.Rand, nullable bool) storage.Value {
	switch k := rng.Intn(8); {
	case k == 0 && nullable:
		return storage.NullValue(storage.Float64)
	case k == 1:
		return storage.FloatValue(float64(rng.Intn(5)-2) * 1e300)
	case k == 2:
		return storage.FloatValue(0)
	}
	return storage.FloatValue(float64(rng.Intn(41)-20) * 2.5)
}

// randomPred builds a random predicate over buildRefTable's schema.
func randomPred(rng *rand.Rand) expr.Pred {
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu"}
	iv := func() storage.Value { return storage.IntValue(rng.Int63n(1200) - 100) }
	switch rng.Intn(14) {
	case 10:
		return expr.MustPred("g", expr.Op(rng.Intn(6)), randomG(rng, false)) // EQ..GE
	case 11:
		return expr.MustPred("g", expr.Between, randomG(rng, false), randomG(rng, false))
	case 12:
		return expr.MustPred("g", expr.In, randomG(rng, false), randomG(rng, false), randomG(rng, false))
	case 13:
		return expr.MustPred("g", []expr.Op{expr.IsNull, expr.IsNotNull}[rng.Intn(2)])
	case 0:
		return expr.MustPred("a", expr.Between, storage.IntValue(rng.Int63n(800)), storage.IntValue(rng.Int63n(800)+200))
	case 1:
		return expr.MustPred("b", expr.Op(rng.Intn(6)), iv()) // EQ..GE
	case 2:
		return expr.MustPred("b", expr.In, iv(), iv(), iv())
	case 3:
		return expr.MustPred("b", expr.IsNull)
	case 4:
		return expr.MustPred("b", expr.IsNotNull)
	case 5:
		return expr.MustPred("f", expr.Op(rng.Intn(6)), storage.FloatValue(rng.NormFloat64()*60))
	case 6:
		return expr.MustPred("s", expr.EQ, storage.StringValue(words[rng.Intn(len(words))]))
	case 7:
		return expr.MustPred("s", expr.Between,
			storage.StringValue(words[rng.Intn(len(words))]), storage.StringValue(words[rng.Intn(len(words))]))
	case 8:
		return expr.MustPred("a", expr.Op(rng.Intn(6)), iv())
	default:
		return expr.MustPred("s", expr.NE, storage.StringValue(words[rng.Intn(len(words))]))
	}
}
