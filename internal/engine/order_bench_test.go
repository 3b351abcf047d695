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

// BenchmarkOrderByLimit times ORDER BY seq over the ~10k matches of a 1%
// range on a 1 Mi-row clustered table: L=100 is the served workload's
// query (keep 100 of 10k), L=0 the full ordering.
func BenchmarkOrderByLimit(b *testing.B) {
	const n = 1 << 20
	e := benchClustered(b, n)
	rng := rand.New(rand.NewSource(2))
	qs := make([]Query, 64)
	for i := range qs {
		lo := rng.Int63n(n - n/100)
		qs[i] = Query{
			Where:   expr.And(expr.MustPred("v", expr.Between, storage.IntValue(lo), storage.IntValue(lo+n/100))),
			Select:  []string{"v", "seq"},
			OrderBy: "seq",
		}
	}
	// Only COUNT(*) queries give the adaptive zonemap the exact per-zone
	// feedback it splits on: refine it with the same ranges first, as the
	// served mix's COUNT majority does.
	for round := 0; round < 8; round++ {
		for i := range qs {
			if _, err := e.Query(Query{Where: qs[i].Where, Aggs: []Agg{{Kind: CountStar}}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, limit := range []int{100, 0} {
		b.Run(fmt.Sprintf("L=%d", limit), func(b *testing.B) {
			for i := range qs {
				qs[i].Limit = limit
			}
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
