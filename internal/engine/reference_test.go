package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

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

// TestQuickEngineMatchesReference is the randomized end-to-end oracle: for
// random conjunctions of every predicate shape, across all three policies,
// counts and projected row sets must match a naive per-row evaluation —
// while adaptive metadata keeps reshaping between queries.
func TestQuickEngineMatchesReference(t *testing.T) {
	tb := buildRefTable(t, 800, 60)
	engines := map[string]*Engine{
		"none":     newEngine(t, tb, PolicyNone),
		"static":   newEngine(t, tb, PolicyStatic),
		"adaptive": newEngine(t, tb, PolicyAdaptive),
		"imprint":  newEngine(t, tb, PolicyImprint),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var where expr.Conj
		for k := 0; k < 1+rng.Intn(3); k++ {
			where.Preds = append(where.Preds, randomPred(rng))
		}
		want := referenceEval(t, tb, where)
		for name, e := range engines {
			res, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}})
			if err != nil {
				t.Logf("%s: %v (where=%s)", name, err, where)
				return false
			}
			if res.Count != len(want) {
				t.Logf("%s: count=%d want %d (where=%s)", name, res.Count, len(want), where)
				return false
			}
			// Projection returns exactly the reference rows, in order.
			proj, err := e.Query(Query{Where: where, Select: []string{"a"}})
			if err != nil {
				t.Logf("%s proj: %v", name, err)
				return false
			}
			if len(proj.Rows) != len(want) {
				t.Logf("%s proj rows=%d want %d", name, len(proj.Rows), len(want))
				return false
			}
			colA, _ := tb.Column("a")
			for i, r := range want {
				wantV := colA.Value(r)
				if !proj.Rows[i][0].Equal(wantV) {
					t.Logf("%s proj row %d: %v want %v", name, i, proj.Rows[i][0], wantV)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGroupByMatchesReference checks GROUP BY output against naive
// group computation for random predicates.
func TestQuickGroupByMatchesReference(t *testing.T) {
	tb := buildRefTable(t, 600, 61)
	e := newEngine(t, tb, PolicyAdaptive)
	colS, _ := tb.Column("s")
	colB, _ := tb.Column("b")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		where := expr.And(randomPred(rng))
		want := referenceEval(t, tb, where)
		res, err := e.Query(Query{
			Where:   where,
			GroupBy: "s",
			Aggs:    []Agg{{Kind: CountStar}, {Kind: Sum, Col: "b"}},
		})
		if err != nil {
			t.Logf("err: %v", err)
			return false
		}
		// Naive groups.
		counts := map[string]int64{}
		sums := map[string]int64{}
		for _, r := range want {
			k := colS.Value(r).Str()
			counts[k]++
			if !colB.IsNull(r) {
				sums[k] += colB.Value(r).Int()
			}
		}
		if len(res.Rows) != len(counts) {
			t.Logf("groups=%d want %d", len(res.Rows), len(counts))
			return false
		}
		prev := ""
		for i, row := range res.Rows {
			k := row[0].Str()
			if i > 0 && k <= prev {
				t.Logf("keys not ascending")
				return false
			}
			prev = k
			if row[1].Int() != counts[k] {
				t.Logf("group %q count=%v want %d", k, row[1], counts[k])
				return false
			}
			wantSum := storage.Value(storage.IntValue(sums[k]))
			if _, hasSum := sums[k], true; !hasSum {
				wantSum = storage.NullValue(storage.Int64)
			}
			// A group whose every b is NULL yields SUM NULL.
			allNull := true
			for _, r := range want {
				if colS.Value(r).Str() == k && !colB.IsNull(r) {
					allNull = false
					break
				}
			}
			if allNull {
				if !row[2].IsNull() {
					t.Logf("group %q sum=%v want NULL", k, row[2])
					return false
				}
			} else if !row[2].Equal(wantSum) {
				t.Logf("group %q sum=%v want %v", k, row[2], wantSum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
