package imprint

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"adskip/internal/bitvec"
	"adskip/internal/core"
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
	if md.Bytes != 10*32+8+64*8 { // a Zone (row bounds, mask, count) per zone, one block (a mask), the bin edges
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

func TestExtendAndWiden(t *testing.T) {
	codes := seq(150, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes[:75]}, nil, 50)
	// The 75 appended rows fold from row 75 on: [0,50) [50,75) [75,125) [125,150).
	m.Extend(storage.Vec{W: codes}, nil)
	if m.Rows() != 150 || m.Metadata().Zones != 4 {
		t.Fatalf("rows=%d zones=%d", m.Rows(), m.Metadata().Zones)
	}
	// Update row 100 to a value below every other: zone [75,125) takes
	// bin 0, which it was skipped for.
	low := oneRange(-5, -1)
	holds := func(res core.PruneResult) bool {
		for _, c := range res.Zones {
			if c.Lo <= 100 && 100 < c.Hi {
				return true
			}
		}
		return false
	}
	before := m.Prune(low)
	codes[100] = -3
	m.Refresh(100, storage.Vec{W: codes}, nil)
	if after := m.Prune(low); holds(before) || !holds(after) {
		t.Fatalf("the updated row's zone: candidates %v before the update, %v after", before.Zones, after.Zones)
	}
	// Written back, the zone's mask drops the bin again.
	codes[100] = 100
	m.Refresh(100, storage.Vec{W: codes}, nil)
	if after := m.Prune(low); !reflect.DeepEqual(after, before) {
		t.Fatalf("after the value was written back %+v, before the update %+v", after, before)
	}
	if err := m.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
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

// Property: imprint pruning is sound on arbitrary data — every matching
// row lies inside a candidate, and covered windows contain only matching
// rows.
func TestQuickImprintSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		zoneSize := 1 + rng.Intn(40)
		codes := make([]int64, n)
		for i := range codes {
			// Heavy-tailed values exercise uneven bins.
			codes[i] = rng.Int63n(1000)
			if rng.Intn(10) == 0 {
				codes[i] *= 1_000_000
			}
		}
		var nulls *bitvec.BitVec
		if rng.Intn(2) == 0 {
			nulls = bitvec.New(n)
			for k := 0; k < n/8; k++ {
				nulls.Set(rng.Intn(n))
			}
		}
		m := Build(storage.Vec{W: codes}, nulls, zoneSize)
		lo := rng.Int63n(2_000_000) - 1000
		r := oneRange(lo, lo+rng.Int63n(500_000))
		st := m.Prune(r)
		cands := st.Zones
		inCand := make([]bool, n)
		covered := make([]bool, n)
		prevHi := -1
		for _, c := range cands {
			if c.Lo >= c.Hi || c.Lo < prevHi {
				return false
			}
			prevHi = c.Hi
			for i := c.Lo; i < c.Hi; i++ {
				inCand[i] = true
				covered[i] = c.Covered
			}
		}
		skipped := 0
		for i := 0; i < n; i++ {
			isNull := nulls != nil && nulls.Get(i)
			matches := !isNull && r.Contains(codes[i])
			if matches && !inCand[i] {
				return false
			}
			if covered[i] && !matches {
				return false
			}
			if !inCand[i] {
				skipped++
			}
		}
		return skipped == st.RowsSkipped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Extend in increments matches a fresh build's pruning behavior
// (bin edges are learned from the initial sample, so masks must agree for
// the same edges; we compare prune outcomes on shared-edge maps).
func TestQuickExtendSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(300)
		zoneSize := 1 + rng.Intn(30)
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = rng.Int63n(10_000)
		}
		m := Build(storage.Vec{W: codes[:n/2]}, nil, zoneSize)
		m.Extend(storage.Vec{W: codes}, nil)
		lo := rng.Int63n(10_000)
		r := oneRange(lo, lo+rng.Int63n(2000))
		cands := m.Prune(r).Zones
		inCand := make([]bool, n)
		for _, c := range cands {
			for i := c.Lo; i < c.Hi; i++ {
				inCand[i] = true
			}
		}
		for i := 0; i < n; i++ {
			if r.Contains(codes[i]) && !inCand[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariants(t *testing.T) {
	codes := seq(950, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(950)
	nulls.Set(7)
	m := Build(storage.Vec{W: codes}, nulls, 100)
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls); err != nil {
		t.Fatalf("fresh imprint: %v", err)
	}
	view := storage.Vec{W: codes}
	if err := m.CheckInvariants(storage.Vec{W: codes[:900]}, nulls); err == nil {
		t.Fatal("a slice shorter than Rows() passed")
	}
	// A value written under the metadata lands in a bin the mask lacks.
	codes[420] = 10
	if err := m.CheckInvariants(view, nulls); err == nil || !strings.Contains(err.Error(), "exclude row 420 code 10") {
		t.Fatalf("a code in a bin missing from its zone's mask: %v", err)
	}
	// Written back, the mask holds a bin no row occupies: the check names
	// the two masks, and Refresh drops the bin.
	m.Refresh(420, view, nulls)
	codes[420] = 420
	if err := m.CheckInvariants(view, nulls); err == nil || !strings.Contains(err.Error(), "its rows derive") {
		t.Fatalf("a mask with a bin no row occupies: %v", err)
	}
	m.Refresh(420, view, nulls)
	// A NULL overwritten without Refresh leaves the count stale.
	nulls.Clear(7)
	if err := m.CheckInvariants(view, nulls); err == nil {
		t.Fatal("a stale non-null count passed")
	}
	m.Refresh(7, view, nulls)
	if err := m.CheckInvariants(view, nulls); err != nil {
		t.Fatalf("after Refresh: %v", err)
	}
}
