package zonemap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// zone is one zone's metadata as the static-zonemap tests read it.
type zone struct {
	Min, Max int64
	NonNull  int
}

func zoneOf(m *Grid[expr.Hull, expr.Clause], zi int) zone {
	return zone{m.sums[zi].Min, m.sums[zi].Max, int(m.nonNull[zi])}
}

// zoneCounts recovers how many of m's zones a probe skipped and how many
// it proved covered from the coalesced candidate windows.
func zoneCounts(m *Grid[expr.Hull, expr.Clause], res core.PruneResult) (skipped, covered int) {
	skipped = len(m.sums)
	for _, c := range res.Zones {
		zones := (c.Hi - c.Lo + m.zoneSize - 1) / m.zoneSize
		skipped -= zones
		if c.Covered {
			covered += zones
		}
	}
	return skipped, covered
}

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
	codes := seq(100, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 10)
	md := m.Metadata()
	if md.Kind != "static" || md.Zones != 10 || !md.Enabled || m.Rows() != 100 || m.zoneSize != 10 {
		t.Fatalf("metadata=%+v rows=%d", md, m.Rows())
	}
	for zi := 0; zi < 10; zi++ {
		z := zoneOf(m, zi)
		if z.Min != int64(zi*10) || z.Max != int64(zi*10+9) || z.NonNull != 10 {
			t.Fatalf("zone %d = %+v", zi, z)
		}
	}
	if md.Bytes != 10*(16+4)+24 { // a Hull and a count per zone, one block
		t.Fatalf("Bytes=%d", md.Bytes)
	}
}

func TestBuildPartialLastZone(t *testing.T) {
	codes := seq(25, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 10)
	if len(m.sums) != 3 {
		t.Fatalf("zones=%d want 3", len(m.sums))
	}
	z := zoneOf(m, 2)
	if z.Min != 20 || z.Max != 24 || z.NonNull != 5 {
		t.Fatalf("partial zone = %+v", z)
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

func TestBuildWithNulls(t *testing.T) {
	codes := seq(20, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(20)
	for i := 10; i < 20; i++ {
		nulls.Set(i) // second zone all null
	}
	nulls.Set(3)
	m := Build(storage.Vec{W: codes}, nulls, 10)
	z0 := zoneOf(m, 0)
	if z0.NonNull != 9 || z0.Min != 0 || z0.Max != 9 {
		t.Fatalf("zone0 = %+v", z0)
	}
	z1 := zoneOf(m, 1)
	if z1.NonNull != 0 {
		t.Fatalf("zone1 = %+v", z1)
	}
	// All-null zone is always skipped.
	res := m.Prune(oneRange(-1000, 1000))
	if cands := res.Zones; len(cands) != 1 || cands[0].Lo != 0 || cands[0].Hi != 10 {
		t.Fatalf("cands=%v", cands)
	}
	if skipped, _ := zoneCounts(m, res); skipped != 1 || res.RowsSkipped != 10 {
		t.Fatalf("res=%+v", res)
	}
}

func TestExtendIncremental(t *testing.T) {
	codes := seq(25, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes[:7]}, nil, 10)
	if len(m.sums) != 1 || zoneOf(m, 0).NonNull != 7 {
		t.Fatalf("initial: zones=%d", len(m.sums))
	}
	m.Extend(storage.Vec{W: codes}, nil)
	if len(m.sums) != 3 || m.Rows() != 25 {
		t.Fatalf("extended: zones=%d rows=%d", len(m.sums), m.Rows())
	}
	// Must be identical to a fresh build.
	fresh := Build(storage.Vec{W: codes}, nil, 10)
	for zi := 0; zi < 3; zi++ {
		if zoneOf(m, zi) != zoneOf(fresh, zi) {
			t.Fatalf("zone %d: extend %+v vs fresh %+v", zi, zoneOf(m, zi), zoneOf(fresh, zi))
		}
	}
	// Extending with no new rows is a no-op.
	m.Extend(storage.Vec{W: codes}, nil)
	if len(m.sums) != 3 {
		t.Fatal("no-op extend changed zones")
	}
}

func TestPruneSkipAndCover(t *testing.T) {
	// 10 zones of 10; values = zone index (constant within a zone).
	codes := seq(100, func(i int) int64 { return int64(i / 10) })
	m := Build(storage.Vec{W: codes}, nil, 10)
	// Predicate [3,5]: zones 3,4,5 covered, others skipped.
	res := m.Prune(oneRange(3, 5))
	if cands := res.Zones; len(cands) != 1 || cands[0].Lo != 30 || cands[0].Hi != 60 || !cands[0].Covered {
		t.Fatalf("cands=%v", cands)
	}
	skipped, covered := zoneCounts(m, res)
	if !res.Enabled || res.ZonesProbed != 11 || skipped != 7 || covered != 3 || res.RowsSkipped != 70 {
		t.Fatalf("res=%+v", res)
	}
	// Empty predicate skips everything.
	res = m.Prune(expr.Ranges{})
	if len(res.Zones) != 0 || res.RowsSkipped != 100 {
		t.Fatalf("empty pred: %+v", res)
	}
}

func TestPruneMergesOnlySameCoverage(t *testing.T) {
	// Zone 0: values 0..9 (partial overlap with [5,15]); zone 1: constant 10
	// (covered); zone 2: values 20..29 (skipped).
	codes := append(append(seq(10, func(i int) int64 { return int64(i) }),
		seq(10, func(i int) int64 { return 10 })...),
		seq(10, func(i int) int64 { return int64(20 + i) })...)
	m := Build(storage.Vec{W: codes}, nil, 10)
	cands := m.Prune(oneRange(5, 15)).Zones
	if len(cands) != 2 {
		t.Fatalf("cands=%v", cands)
	}
	if cands[0].Covered || !cands[1].Covered {
		t.Fatalf("coverage flags wrong: %v", cands)
	}
	if cands[0].Lo != 0 || cands[0].Hi != 10 || cands[1].Lo != 10 || cands[1].Hi != 20 {
		t.Fatalf("windows wrong: %v", cands)
	}
}

func TestWidenAndNoteNonNull(t *testing.T) {
	codes := seq(20, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 10)
	m.Widen(5, 1000)
	z := zoneOf(m, 0)
	if z.Min != 0 || z.Max != 1000 {
		t.Fatalf("widened zone = %+v", z)
	}
	// Widening an all-null zone initializes bounds.
	nulls := bitvec.New(10)
	nulls.SetAll()
	m2 := Build(storage.Vec{W: codes[:10]}, nulls, 10)
	m2.Widen(3, 42)
	m2.NoteNonNull(3)
	z = zoneOf(m2, 0)
	if z.Min != 42 || z.Max != 42 || z.NonNull != 1 {
		t.Fatalf("null-zone widen = %+v", z)
	}
	cands := m2.Prune(oneRange(42, 42)).Zones
	if len(cands) != 1 {
		t.Fatalf("widened null zone should now be a candidate: %v", cands)
	}
}

// Property: pruning is sound — every row whose code matches the predicate
// lies inside some emitted candidate window — and candidates are disjoint,
// ordered, and covered candidates contain only matching non-null rows.
func TestQuickPruneSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		zoneSize := 1 + rng.Intn(40)
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = rng.Int63n(100)
		}
		var nulls *bitvec.BitVec
		if rng.Intn(2) == 0 {
			nulls = bitvec.New(n)
			for k := 0; k < n/8; k++ {
				nulls.Set(rng.Intn(n))
			}
		}
		m := Build(storage.Vec{W: codes}, nulls, zoneSize)
		lo := rng.Int63n(120) - 10
		r := oneRange(lo, lo+rng.Int63n(50))
		res := m.Prune(r)
		cands := res.Zones

		inCand := make([]bool, n)
		covered := make([]bool, n)
		prevHi := -1
		for _, c := range cands {
			if c.Lo >= c.Hi || c.Lo < prevHi {
				return false // unordered or empty window
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
				return false // unsound skip
			}
			if covered[i] && !matches {
				return false // covered implies every row (incl. non-null) matches
			}
			if !inCand[i] {
				skipped++
			}
		}
		return skipped == res.RowsSkipped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Extend in random increments matches a fresh Build.
func TestQuickExtendMatchesBuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		zoneSize := 1 + rng.Intn(30)
		codes := make([]int64, n)
		for i := range codes {
			codes[i] = rng.Int63n(1000)
		}
		m := Build(storage.Vec{W: codes[:1+rng.Intn(n)]}, nil, zoneSize)
		for m.Rows() < n {
			next := m.Rows() + 1 + rng.Intn(n-m.Rows())
			m.Extend(storage.Vec{W: codes[:next]}, nil)
		}
		fresh := Build(storage.Vec{W: codes}, nil, zoneSize)
		if len(m.sums) != len(fresh.sums) {
			return false
		}
		for zi := 0; zi < len(m.sums); zi++ {
			if zoneOf(m, zi) != zoneOf(fresh, zi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: PruneNulls is sound — every NULL row lies inside an emitted
// candidate window, covered windows contain only NULL rows, and null-free
// zones are skipped.
func TestQuickPruneNullsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		zoneSize := 1 + rng.Intn(30)
		codes := make([]int64, n)
		nulls := bitvec.New(n)
		for i := range codes {
			codes[i] = rng.Int63n(50)
			if rng.Intn(4) == 0 {
				nulls.Set(i)
			}
		}
		m := Build(storage.Vec{W: codes}, nulls, zoneSize)
		res := m.PruneNulls()
		cands := res.Zones
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
			isNull := nulls.Get(i)
			if isNull && !inCand[i] {
				return false // a NULL row was wrongly skipped
			}
			if covered[i] && !isNull {
				return false // covered window with a non-NULL row
			}
			if !inCand[i] {
				skipped++
			}
		}
		return skipped == res.RowsSkipped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariants(t *testing.T) {
	codes := seq(95, func(i int) int64 { return int64(i) })
	nulls := bitvec.New(95)
	nulls.Set(7)
	m := Build(storage.Vec{W: codes}, nulls, 10)
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, true); err != nil {
		t.Fatalf("fresh map: %v", err)
	}
	if err := m.CheckInvariants(storage.Vec{W: codes[:90]}, nulls, false); err == nil {
		t.Fatal("a slice shorter than Rows() passed")
	}
	// A widen keeps the map sound but no longer tight.
	m.Widen(3, 500)
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, false); err != nil {
		t.Fatalf("widened map, loose check: %v", err)
	}
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, true); err == nil {
		t.Fatal("widened map passed the exact check")
	}
	// A value written under the metadata escapes its zone's hull.
	codes[42] = -1
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, false); err == nil {
		t.Fatal("a code outside its zone's bounds passed")
	}
	codes[42] = 42
	// A NULL overwritten without NoteNonNull leaves the count stale.
	nulls.Clear(7)
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, false); err == nil {
		t.Fatal("a stale non-null count passed")
	}
	m.NoteNonNull(7)
	if err := m.CheckInvariants(storage.Vec{W: codes}, nulls, false); err != nil {
		t.Fatalf("after NoteNonNull: %v", err)
	}
}
