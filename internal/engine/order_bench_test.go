package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// benchClustered builds the served workload's table shape: n rows in
// 4096-row blocks, each block one band of v's domain (bands in shuffled
// order), seq the row number. A 1% range of v then matches ~1% of the rows,
// concentrated in two or three blocks.
func benchClustered(b *testing.B, n int) *Engine {
	b.Helper()
	const block = 4096
	tb := table.MustNew("data", table.Schema{{Name: "v", Type: storage.Int64}, {Name: "seq", Type: storage.Int64}})
	rng := rand.New(rand.NewSource(1))
	bands := rng.Perm(n / block)
	batcher := table.NewBatcher(tb)
	for i := 0; i < n; i++ {
		v := int64(bands[i/block]*block + rng.Intn(block))
		if err := batcher.Add(storage.IntValue(v), storage.IntValue(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := batcher.Flush(); err != nil {
		b.Fatal(err)
	}
	e := New(tb, Options{Policy: PolicyAdaptive})
	if err := e.EnableSkipping("v"); err != nil {
		b.Fatal(err)
	}
	return e
}

// benchRanges returns 64 1% ranges of v over e's n rows, after refining
// e's zonemap with them as COUNT(*) queries, as the served mix's COUNT
// majority does, so every shape timed meets the same converged zones.
func benchRanges(b *testing.B, e *Engine, n int) []expr.Conj {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	wheres := make([]expr.Conj, 64)
	for i := range wheres {
		lo := rng.Int63n(int64(n - n/100))
		wheres[i] = expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo), storage.IntValue(lo+int64(n/100))))
	}
	for round := 0; round < 8; round++ {
		for _, where := range wheres {
			if _, err := e.Query(Query{Where: where, Aggs: []Agg{{Kind: CountStar}}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return wheres
}

// BenchmarkOrderByLimit times ORDER BY seq over the ~10k matches of a 1%
// range on a 1 Mi-row clustered table: L=100 is the served workload's
// query (keep 100 of 10k), L=0 the full ordering. seq ascends, so L=100
// skips every window past the cut once its heap is full, while
// L=100-desc finds better rows in every window and never skips: it
// measures what the window test costs where it cannot pay.
func BenchmarkOrderByLimit(b *testing.B) {
	const n = 1 << 20
	e := benchClustered(b, n)
	wheres := benchRanges(b, e, n)
	for _, c := range []struct {
		limit int
		desc  bool
	}{{100, false}, {100, true}, {0, false}} {
		limit := c.limit
		qs := make([]Query, len(wheres))
		for i, where := range wheres {
			qs[i] = Query{Where: where, Select: []string{"v", "seq"}, OrderBy: "seq", OrderDesc: c.desc, Limit: limit}
		}
		name := fmt.Sprintf("L=%d", limit)
		if c.desc {
			name += "-desc"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Query(qs[i%len(qs)])
				if err != nil {
					b.Fatal(err)
				}
				if limit > 0 && res.Count != limit {
					b.Fatalf("rows=%d", res.Count)
				}
			}
		})
	}
}

// BenchmarkQueryShapes times the windowed scan loop's other shapes over the
// same 1% ranges and warmed zonemap as BenchmarkOrderByLimit: an aggregate,
// a GROUP BY, a projection with and without a LIMIT, and a COUNT over two
// columns (seq has no skipper, so every candidate window is filtered).
func BenchmarkQueryShapes(b *testing.B) {
	const n = 1 << 20
	e := benchClustered(b, n)
	wheres := benchRanges(b, e, n)
	half := expr.MustPred("seq", expr.LT, storage.IntValue(n/2))
	shapes := []struct {
		name  string
		query func(where expr.Conj) Query
	}{
		{"sum", func(w expr.Conj) Query { return Query{Where: w, Aggs: []Agg{{Kind: Sum, Col: "seq"}}} }},
		{"group", func(w expr.Conj) Query {
			return Query{Where: w, GroupBy: "v", Aggs: []Agg{{Kind: CountStar}}}
		}},
		{"project", func(w expr.Conj) Query { return Query{Where: w, Select: []string{"v", "seq"}} }},
		{"project-L=100", func(w expr.Conj) Query { return Query{Where: w, Select: []string{"v", "seq"}, Limit: 100} }},
		{"count-2col", func(w expr.Conj) Query {
			return Query{Where: expr.And(w.Preds[0], half), Aggs: []Agg{{Kind: CountStar}}}
		}},
	}
	for _, shape := range shapes {
		qs := make([]Query, len(wheres))
		for i, where := range wheres {
			qs[i] = shape.query(where)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchEncoded []byte

// BenchmarkEncodeResult times the wire encoder on the served workload's
// two response shapes.
func BenchmarkEncodeResult(b *testing.B) {
	count := &Result{Count: 10431, Aggs: []storage.Value{storage.IntValue(10431)},
		Stats: ExecStats{RowsScanned: 14336, RowsSkipped: 509952, ZonesProbed: 71, SkippersUsed: 1, ShardsScanned: 1, ShardsPruned: 1}}
	rows := &Result{Count: 100, Columns: []string{"v", "seq"}, Types: []storage.Type{storage.Int64, storage.Int64}, Stats: count.Stats}
	for i := 0; i < 100; i++ {
		rows.Rows = append(rows.Rows, []storage.Value{storage.IntValue(int64(500_000 + 97*i)), storage.IntValue(int64(812_345 + i))})
	}
	for name, r := range map[string]*Result{"count": count, "rows=100x2": rows} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchEncoded = r.AppendJSON(benchEncoded[:0])
			}
			b.SetBytes(int64(len(benchEncoded)))
		})
	}
}
