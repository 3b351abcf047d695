package imprint

import (
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

func seq(n int, f func(i int) int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

func oneRange(lo, hi int64) expr.Ranges {
	return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}}
}

func TestBuildBasics(t *testing.T) {
	codes := seq(1000, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 100)
	md := m.Metadata()
	if md.Kind != "imprint" || md.Zones != 10 || !md.Enabled || m.Rows() != 1000 {
		t.Fatalf("metadata=%+v rows=%d", md, m.Rows())
	}
	if md.Bytes != 10*(16+8)+8+8+64*8 { // a Zone (row bounds, count, first part) and its mask per zone, one block and the tail (a mask each), the bin edges
		t.Fatalf("Bytes=%d", md.Bytes)
	}
}

func TestBuildZeroZoneSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(storage.Vec{}, nil, 0)
}

func TestPruneSortedData(t *testing.T) {
	codes := seq(6400, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 100)
	res := m.Prune(oneRange(1000, 1099))
	if res.RowsSkipped < 6000 {
		t.Fatalf("sorted data should prune hard: %+v", res)
	}
	// All matching rows are inside candidates.
	cands := res.Zones
	covered := false
	for _, c := range cands {
		if c.Lo <= 1000 && 1100 <= c.Hi {
			covered = true
		}
	}
	if !covered {
		t.Fatalf("candidates %v do not cover matching rows", cands)
	}
}

// The imprint headline: multi-modal zones prune where min/max hulls fail.
func TestPruneMultiModalBeatsHull(t *testing.T) {
	// Rows interleave two modes (values near i and values near 1e6+i), so
	// every zone's min/max hull spans the whole domain — a zonemap prunes
	// nothing for a mid-gap query. The imprint sees each zone occupy two
	// narrow bins and skips almost everything (up to bin-edge
	// quantization at the gap boundary).
	const n = 6400
	codes := seq(n, func(i int) int64 {
		v := int64((i / 2) % 100_000)
		if i%2 == 1 {
			v += 1_000_000
		}
		return v
	})
	gap := oneRange(300_000, 800_000)

	if zst := zonemap.Build(storage.Vec{W: codes}, nil, 64).Prune(gap); zst.RowsSkipped != 0 {
		t.Fatalf("hull zonemap unexpectedly pruned the bimodal data: %+v", zst)
	}

	m := Build(storage.Vec{W: codes}, nil, 64)
	if st := m.Prune(gap); st.RowsSkipped < n*9/10 {
		t.Fatalf("imprint should skip >=90%% on mid-gap query: %+v", st)
	}
	// Queries at a mode still scan the zones holding it.
	if st := m.Prune(oneRange(0, 50)); st.RowsSkipped == n {
		t.Fatalf("mode query should scan something: %+v", st)
	}
}

func TestCoveredDetection(t *testing.T) {
	// Constant zones inside a wide predicate are covered.
	codes := seq(1000, func(i int) int64 { return int64(i / 100 * 1000) })
	m := Build(storage.Vec{W: codes}, nil, 100)
	cands := m.Prune(oneRange(-1, 9001)).Zones
	// All but the top zone are provably covered; the last histogram bin
	// extends to +inf, so the top zone stays a conservative scan
	// candidate under any finite upper bound.
	coveredRows := 0
	for _, c := range cands {
		if c.Covered {
			coveredRows += c.Hi - c.Lo
		}
	}
	if coveredRows < 9*100 {
		t.Fatalf("covered rows=%d want >=9 zones: %v", coveredRows, cands)
	}
	if !cands[0].Covered || cands[0].Hi < 900 {
		t.Fatalf("covered run wrong: %v", cands)
	}
}

func TestNullsAndPruneNulls(t *testing.T) {
	codes := make([]int64, 200)
	nulls := bitvec.New(200)
	for i := 0; i < 100; i++ {
		nulls.Set(i)
	}
	for i := 100; i < 200; i++ {
		codes[i] = int64(i)
	}
	m := Build(storage.Vec{W: codes}, nulls, 100)
	// All-null zone is skipped for value predicates.
	cands := m.Prune(oneRange(-1<<40, 1<<40)).Zones
	if len(cands) != 1 || cands[0].Lo != 100 {
		t.Fatalf("cands=%v", cands)
	}
	// IS NULL: first zone covered, second skipped.
	st := m.PruneNulls()
	if cands = st.Zones; len(cands) != 1 || !cands[0].Covered || cands[0].Hi != 100 {
		t.Fatalf("null cands=%v", cands)
	}
	if st.RowsSkipped != 100 {
		t.Fatalf("st=%+v", st)
	}
}

func TestAllNullColumn(t *testing.T) {
	codes := make([]int64, 50)
	nulls := bitvec.New(50)
	nulls.SetAll()
	m := Build(storage.Vec{W: codes}, nulls, 10)
	st := m.Prune(oneRange(-1, 1))
	if len(st.Zones) != 0 || st.RowsSkipped != 50 {
		t.Fatalf("all-null column: %+v", st)
	}
}
