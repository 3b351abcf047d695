package engine

import (
	"math/rand"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// nullTable builds a table whose "b" column has NULLs concentrated in one
// region (so null skipping has something to prune) plus scattered ones.
func nullTable(t testing.TB, n int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	tb := table.MustNew("t", table.Schema{
		{Name: "a", Type: storage.Int64},
		{Name: "b", Type: storage.Int64},
	})
	for i := 0; i < n; i++ {
		b := storage.Value(storage.IntValue(rng.Int63n(1000)))
		switch {
		case i >= n/2 && i < n/2+n/10: // dense NULL region
			b = storage.NullValue(storage.Int64)
		case rng.Intn(200) == 0: // scattered NULLs
			b = storage.NullValue(storage.Int64)
		}
		if err := tb.AppendRow(storage.IntValue(int64(i)), b); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestIsNullAcrossPolicies: IS NULL prunes the null-free zones under every
// skipping policy (the torture oracle holds the answers to no skipping).
func TestIsNullAcrossPolicies(t *testing.T) {
	tb := nullTable(t, 2000)
	for _, policy := range []Policy{PolicyStatic, PolicyAdaptive, PolicyImprint} {
		e := newEngine(t, tb, policy)
		res, err := e.Query(Query{
			Where: expr.And(expr.MustPred("b", expr.IsNull)),
			Aggs:  []Agg{{Kind: CountStar}},
		})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		// Most zones are null-free.
		if res.Count == 0 || res.Stats.RowsSkipped == 0 {
			t.Fatalf("%v: IS NULL counted %d, pruned nothing: %+v", policy, res.Count, res.Stats)
		}
		// IS NULL also refines another column's selection.
		split := 0
		for _, op := range []expr.Op{expr.LT, expr.GE} {
			part, err := e.Query(Query{Where: expr.And(intPred("a", op, 1000), expr.MustPred("b", expr.IsNull))})
			if err != nil {
				t.Fatal(err)
			}
			split += part.Count
		}
		if split != res.Count {
			t.Fatalf("%v: IS NULL split by a counts %d, whole %d", policy, split, res.Count)
		}
	}
}

// TestIsNullConjunctions: a conjunction that IS NULL contradicts reads
// no row.
func TestIsNullConjunctions(t *testing.T) {
	tb := nullTable(t, 2000)
	e := newEngine(t, tb, PolicyAdaptive)

	// b IS NULL AND b > 5 is unsatisfiable (comparison implies NOT NULL).
	res, err := e.Query(Query{
		Where: expr.And(expr.MustPred("b", expr.IsNull), intPred("b", expr.GT, 5)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil || res.Count != 0 || res.Stats.RowsScanned != 0 {
		t.Fatalf("IS NULL ∧ cmp: count=%d scanned=%d err=%v", res.Count, res.Stats.RowsScanned, err)
	}

	// b IS NULL AND b IS NOT NULL likewise.
	res, err = e.Query(Query{
		Where: expr.And(expr.MustPred("b", expr.IsNull), expr.MustPred("b", expr.IsNotNull)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil || res.Count != 0 {
		t.Fatalf("IS NULL ∧ IS NOT NULL: count=%d err=%v", res.Count, err)
	}
}
