package zonemap

import (
	"testing"

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

func zoneOf(m *Grid[expr.Hull, Clause], zi int) zone {
	zn := m.Zone(zi)
	return zone{zn.Sum.Min, zn.Sum.Max, int(zn.NonNull)}
}

// zoneCounts recovers how many of m's zones a probe skipped and how many
// it proved covered from the coalesced candidate windows.
func zoneCounts(m *Grid[expr.Hull, Clause], res core.PruneResult) (skipped, covered int) {
	skipped = len(m.Zones)
	for _, zn := range m.Zones {
		lo, hi := zn.Rows()
		for _, c := range res.Zones {
			if c.Lo <= lo && hi <= c.Hi {
				skipped--
				if c.Covered {
					covered++
				}
			}
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
	if md.Kind != "static" || md.Zones != 10 || !md.Enabled || m.Rows() != 100 || m.zoneRows != 10 {
		t.Fatalf("metadata=%+v rows=%d", md, m.Rows())
	}
	for zi := 0; zi < 10; zi++ {
		z := zoneOf(m, zi)
		if z.Min != int64(zi*10) || z.Max != int64(zi*10+9) || z.NonNull != 10 {
			t.Fatalf("zone %d = %+v", zi, z)
		}
	}
	if md.Bytes != 10*(16+16)+16+16 { // a Zone (row bounds, count, first part) and its bounds per zone, one block and the tail (a Hull each)
		t.Fatalf("Bytes=%d", md.Bytes)
	}
}

func TestBuildPartialLastZone(t *testing.T) {
	codes := seq(25, func(i int) int64 { return int64(i) })
	m := Build(storage.Vec{W: codes}, nil, 10)
	if len(m.Zones) != 3 {
		t.Fatalf("zones=%d want 3", len(m.Zones))
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
	if len(m.Zones) != 1 || zoneOf(m, 0).NonNull != 7 {
		t.Fatalf("initial: zones=%d", len(m.Zones))
	}
	// Five appended rows wait in the tail, summarised as they arrive; a
	// probe tests it as one more zone.
	m.Extend(storage.Vec{W: codes[:12]}, nil)
	if len(m.Zones) != 1 || m.Rows() != 12 || m.Indexed() != 7 {
		t.Fatalf("tail: zones=%d rows=%d indexed=%d", len(m.Zones), m.Rows(), m.Indexed())
	}
	if err := m.CheckInvariants(storage.Vec{W: codes[:12]}, nil); err != nil {
		t.Fatal(err)
	}
	if res := m.Prune(oneRange(100, 200)); len(res.Zones) != 0 || res.RowsSkipped != 12 {
		t.Fatalf("tail not skipped: %+v", res)
	}
	if res := m.Prune(oneRange(9, 200)); len(res.Zones) != 1 || res.Zones[0] != (core.CandidateZone{Lo: 7, Hi: 12}) {
		t.Fatalf("tail not a candidate: %+v", res)
	}
	// Once the tail holds a zone's worth of rows, it folds into zones of 10
	// rows from its first row on, each summarised as a fresh build would.
	m.Extend(storage.Vec{W: codes}, nil)
	if len(m.Zones) != 3 || m.Rows() != 25 || m.Indexed() != 25 {
		t.Fatalf("extended: zones=%d rows=%d indexed=%d", len(m.Zones), m.Rows(), m.Indexed())
	}
	for zi, lo := range []int{0, 7, 17} {
		zn := m.Zone(zi)
		fresh := Build(storage.Vec{W: codes[lo:zn.Hi]}, nil, 10)
		if int(zn.Lo) != lo || zn.Sum != fresh.Zone(0).Sum || zn.NonNull != fresh.Zones[0].NonNull {
			t.Fatalf("zone %d: extend %+v vs fresh %+v", zi, zn, fresh.Zone(0))
		}
	}
	if err := m.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
	}
	// Extending with no new rows is a no-op.
	m.Extend(storage.Vec{W: codes}, nil)
	if len(m.Zones) != 3 {
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
