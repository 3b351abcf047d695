package adskip

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// liveHeap collects twice (the second cycle frees what finalizers released
// in the first) and returns the live heap, as the repository benchmark's
// heap_mb does.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapFollowsCodeWidth mirrors the benchmark's heap_mb at test scale:
// 1 Mi rows of the benchmark's schema — v below 2^21, seq the row number,
// noise a DOUBLE — loaded in 64 Ki batches, skipping enabled on v, 64 range
// counts. What stays live is the column payload: 4 bytes a row for v and
// for seq (seq is never read, so it is still staged: chunks are narrow when
// they are stored, not only once consolidated), 8 for noise, and well under
// half a byte a row of everything else.
func TestHeapFollowsCodeWidth(t *testing.T) {
	const rows, batchRows, queries = 1 << 20, 1 << 16, 64
	before := liveHeap()

	db := Open(Options{Policy: Adaptive})
	defer db.Close()
	tbl, err := db.CreateTable("data", Col("v", Int64), Col("seq", Int64), Col("noise", Float64))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cells := make([]Value, 3*batchRows)
	batch := make([][]Value, batchRows)
	for i := range batch {
		batch[i] = cells[3*i : 3*i+3]
	}
	for lo := 0; lo < rows; lo += batchRows {
		for k := range batch {
			batch[k][0] = IntValue(rng.Int63n(1 << 21))
			batch[k][1] = IntValue(int64(lo + k))
			batch[k][2] = FloatValue(rng.Float64() * 1000)
		}
		if err := tbl.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries; q++ {
		lo := rng.Int63n(1 << 21)
		res, err := db.Exec(fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", lo, lo+(1<<21)/100))
		if err != nil || res.Count == 0 {
			t.Fatalf("query %d: count %d, %v", q, res.Count, err)
		}
	}
	cells, batch = nil, nil

	perRow := float64(liveHeap()-before) / rows
	t.Logf("%.2f live heap bytes per row", perRow)
	if perRow > 16.5 {
		t.Fatalf("%.2f live heap bytes per row, want <= 16.5 (4 + 4 + 8 and metadata)", perRow)
	}
}
