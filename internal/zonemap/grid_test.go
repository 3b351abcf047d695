package zonemap_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/imprint"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// gridKinds is every summary kind of the fixed grid. learn fixes whatever
// the kind derives from the whole column and returns a builder of grids
// over a row prefix, so a grid extended from a prefix and one built from
// scratch share the kind and differ only in how their zones came about.
var gridKinds = []struct {
	name  string
	learn func(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) func(rows int) core.Skipper
}{
	{"static", func(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) func(int) core.Skipper {
		return func(rows int) core.Skipper { return zonemap.Build(codes.Slice(0, rows), nulls, zoneSize) }
	}},
	{"imprint", func(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) func(int) core.Skipper {
		bins := imprint.Learn(codes, nulls)
		return func(rows int) core.Skipper { return zonemap.NewGrid(bins, codes.Slice(0, rows), nulls, zoneSize) }
	}},
}

// narrowView returns codes, all in [0, 2^32), as the 4-byte view a column
// holding them would hand out.
func narrowView(codes []int64) storage.Vec {
	n := make([]uint32, len(codes))
	for i, c := range codes {
		n[i] = uint32(c)
	}
	return storage.Vec{N: n}
}

// randomRanges draws a normalized set of up to four intervals around the
// column's value domain.
func randomRanges(rng *rand.Rand, domain int64) expr.Ranges {
	var r expr.Ranges
	for k := rng.Intn(5); k > 0; k-- {
		lo := rng.Int63n(domain+20) - 10
		r.Lo = append(r.Lo, lo)
		r.Hi = append(r.Hi, lo+rng.Int63n(domain/2+1))
	}
	return r.Normalize()
}

// checkWindows fails unless res's windows are ordered, disjoint and
// non-empty, contain every row match reports (candidates ⊇ matching
// rows), hold nothing but matches when Covered, and leave exactly
// RowsSkipped rows outside.
func checkWindows(t *testing.T, what string, res core.PruneResult, n int, match func(row int) bool) {
	t.Helper()
	if !res.Enabled {
		t.Fatalf("%s: the grid declined", what)
	}
	inCand, covered, prevHi := make([]bool, n), make([]bool, n), 0
	for _, c := range res.Zones {
		if c.Lo >= c.Hi || c.Lo < prevHi || c.Hi > n {
			t.Fatalf("%s: window %+v after row %d of %d", what, c, prevHi, n)
		}
		prevHi = c.Hi
		for i := c.Lo; i < c.Hi; i++ {
			inCand[i], covered[i] = true, c.Covered
		}
	}
	skipped := 0
	for i := 0; i < n; i++ {
		switch m := match(i); {
		case m && !inCand[i]:
			t.Fatalf("%s: matching row %d skipped", what, i)
		case covered[i] && !m:
			t.Fatalf("%s: row %d is in a covered window and does not match", what, i)
		case !inCand[i]:
			skipped++
		}
	}
	if skipped != res.RowsSkipped {
		t.Fatalf("%s: RowsSkipped=%d, %d rows lie outside the windows", what, res.RowsSkipped, skipped)
	}
}

// The grid's contract, checked once for every summary kind over random
// nullable columns (empty included), zone sizes 1…n+1 and random range
// sets: probes are sound, Extend in random increments equals a
// from-scratch build, and CheckInvariants tells a tight grid from a
// loosened one. Every column is summarised twice, from its 8-byte and from
// its 4-byte view — by the grid kind and by the adaptive zonemap — and the
// two must agree on every summary, candidate and verdict. The last 50
// columns have zones of 1–3 rows, so that a grid spans several blocks and
// an Extend crosses block boundaries, and half of them NULL-only blocks.
func TestGridProperties(t *testing.T) {
	const columns = 200
	for _, kind := range gridKinds {
		t.Run(kind.name, func(t *testing.T) {
			loosened := 0
			for seed := int64(0); seed < columns; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := rng.Intn(300)
				zoneSize := 1 + rng.Intn(n+1)
				small := seed >= columns-50
				if small {
					n, zoneSize = rng.Intn(12*zonemap.BlockZones), 1+rng.Intn(3)
				}
				domain := 1 + rng.Int63n(1000)
				codes := make([]int64, n)
				var nulls *bitvec.BitVec
				if rng.Intn(3) > 0 {
					nulls = bitvec.New(n)
				}
				nullRun := rng.Intn(3) == 0 // whole zones of NULLs, not only scattered ones
				nullBlocks := small && rng.Intn(2) == 0
				for i := range codes {
					codes[i] = rng.Int63n(domain)
					if rng.Intn(8) == 0 {
						codes[i] *= 1_000_000 // heavy tail: uneven bins
					}
					if nulls != nil && (rng.Intn(6) == 0 || nullRun && (i/zoneSize)%3 == 0 ||
						nullBlocks && (i/zoneSize/zonemap.BlockZones)%2 == 1) {
						nulls.Set(i)
					}
				}
				isNull := func(i int) bool { return nulls != nil && nulls.Get(i) }
				wide, narrow := storage.Vec{W: codes}, narrowView(codes)
				build := kind.learn(wide, nulls, zoneSize)

				// Extend in random increments equals a from-scratch build.
				fresh := build(n)
				g := build(rng.Intn(n + 1))
				for g.Rows() < n {
					g.Extend(wide.Slice(0, g.Rows()+1+rng.Intn(n-g.Rows())), nulls)
				}
				if !reflect.DeepEqual(g, fresh) {
					t.Fatalf("seed %d: extended grid %+v, built grid %+v", seed, g, fresh)
				}
				if md := g.Metadata(); md.Kind != kind.name || md.Zones != (n+zoneSize-1)/zoneSize || g.Rows() != n {
					t.Fatalf("seed %d: metadata %+v over %d rows, zone size %d", seed, md, n, zoneSize)
				}
				// The 4-byte view of the same column: the same grid, and
				// either grid holds against either view.
				ng := kind.learn(narrow, nulls, zoneSize)(n)
				if !reflect.DeepEqual(ng, fresh) {
					t.Fatalf("seed %d: grid over the narrow view %+v, over the wide view %+v", seed, ng, fresh)
				}
				for _, view := range []storage.Vec{wide, narrow} {
					if err := g.CheckInvariants(view, nulls, true); err != nil {
						t.Fatalf("seed %d: fresh grid, %d-byte view: %v", seed, view.Width(), err)
					}
				}
				az, anz := adaptive.New(wide, nulls, adaptive.Config{InitialZoneRows: zoneSize}), adaptive.New(narrow, nulls, adaptive.Config{InitialZoneRows: zoneSize})
				if !reflect.DeepEqual(anz, az) {
					t.Fatalf("seed %d: adaptive zonemap over the narrow view %+v, over the wide view %+v", seed, anz, az)
				}

				// Probes are sound, and do not depend on the view.
				for q := 0; q < 4; q++ {
					r := randomRanges(rng, domain)
					res := g.Prune(r)
					checkWindows(t, r.String(), res, n, func(i int) bool { return !isNull(i) && r.Contains(codes[i]) })
					if nres := ng.Prune(r); !reflect.DeepEqual(nres, res) {
						t.Fatalf("seed %d: %v: candidates %+v over the narrow view, %+v over the wide view", seed, r, nres, res)
					}
					if ares, anres := az.Prune(r), anz.Prune(r); !reflect.DeepEqual(anres, ares) {
						t.Fatalf("seed %d: %v: adaptive candidates %+v over the narrow view, %+v over the wide view", seed, r, anres, ares)
					}
				}
				checkWindows(t, "IS NULL", g.PruneNulls(), n, isNull)

				// A column that moved under the metadata — one value beyond
				// every hull, still a 4-byte code — fails the adaptive
				// zonemap's check whichever view it is read through, and the
				// grid's verdict (an imprint's top bin may admit it) is the
				// same for both.
				for row := 0; row < n; row++ {
					if isNull(row) {
						continue
					}
					was := codes[row]
					codes[row], narrow.N[row] = 4_000_000_000, 4_000_000_000
					for _, view := range []storage.Vec{wide, narrow} {
						if az.CheckInvariants(view, nulls, false) == nil {
							t.Fatalf("seed %d: row %d moved to 4e9 and a %d-byte view passed the adaptive zonemap's check", seed, row, view.Width())
						}
					}
					if werr, nerr := g.CheckInvariants(wide, nulls, false), g.CheckInvariants(narrow, nulls, false); (werr == nil) != (nerr == nil) {
						t.Fatalf("seed %d: row %d moved to 4e9: wide view says %v, narrow view says %v", seed, row, werr, nerr)
					}
					codes[row], narrow.N[row] = was, uint32(was)
					if err := az.CheckInvariants(narrow, nulls, true); err != nil {
						t.Fatalf("seed %d: adaptive zonemap, narrow view: %v", seed, err)
					}
					break
				}

				// A Widen that loosens a zone — admits a code the zone was
				// skipped for, with the column left as it was — keeps the
				// grid sound and no longer tight.
				for try := 0; try < 8 && n > 0; try++ {
					row, code := rng.Intn(n), rng.Int63n(2*domain)*int64(1+rng.Intn(2)*999_999)
					point := expr.Ranges{Lo: []int64{code}, Hi: []int64{code}}
					inWindow := func(res core.PruneResult) bool {
						for _, c := range res.Zones {
							if c.Lo <= row && row < c.Hi {
								return true
							}
						}
						return false
					}
					if isNull(row) || inWindow(g.Prune(point)) {
						continue
					}
					g.Widen(row, code)
					if !inWindow(g.Prune(point)) {
						t.Fatalf("seed %d: row %d's zone still skipped for %d after Widen", seed, row, code)
					}
					for _, view := range []storage.Vec{wide, narrow} {
						if err := g.CheckInvariants(view, nulls, false); err != nil {
							t.Fatalf("seed %d: loosened grid, loose check, %d-byte view: %v", seed, view.Width(), err)
						}
						if err := g.CheckInvariants(view, nulls, true); err == nil {
							t.Fatalf("seed %d: grid loosened at row %d by %d passed the exact check (%d-byte view)", seed, row, code, view.Width())
						}
					}
					loosened++
					break
				}

				// A NULL that gains a value — the column written, then
				// Widen and NoteNonNull, as the engine makes the update —
				// keeps the grid sound and its loose check passing.
				for try := 0; try < 8 && nulls != nil && n > 0; try++ {
					row, code := rng.Intn(n), rng.Int63n(domain)
					if !isNull(row) {
						continue
					}
					codes[row], narrow.N[row] = code, uint32(code)
					nulls.Clear(row)
					g.Widen(row, code)
					g.NoteNonNull(row)
					point := expr.Ranges{Lo: []int64{code}, Hi: []int64{code}}
					checkWindows(t, fmt.Sprintf("seed %d: %d written over the NULL at row %d", seed, code, row),
						g.Prune(point), n, func(i int) bool { return !isNull(i) && codes[i] == code })
					for _, view := range []storage.Vec{wide, narrow} {
						if err := g.CheckInvariants(view, nulls, false); err != nil {
							t.Fatalf("seed %d: row %d gained a value, loose check, %d-byte view: %v", seed, row, view.Width(), err)
						}
					}
					break
				}
			}
			if loosened < 50 {
				t.Fatalf("only %d of %d columns found a loosening Widen", loosened, columns)
			}
		})
	}
}

// edgeRanges returns predicates whose interval edges sit on, just inside
// and just outside each of the given zone bounds — where a block or zone
// verdict flips between skip, scan and cover — plus the empty predicate
// and a few multi-interval sets.
func edgeRanges(rng *rand.Rand, bounds []int64, domain int64) []expr.Ranges {
	out := []expr.Ranges{{}}
	for _, b := range bounds {
		for _, e := range []int64{b - 1, b, b + 1} {
			out = append(out, oneRange(e, e), oneRange(e, e+domain/8), oneRange(e-domain/8, e))
		}
	}
	for k := 0; k < 8; k++ {
		out = append(out, randomRanges(rng, domain))
	}
	return out
}

func oneRange(lo, hi int64) expr.Ranges { return expr.Ranges{Lo: []int64{lo}, Hi: []int64{hi}} }

// sameAsFlat fails unless the blocked probe of g emits what the flat walk
// does for every predicate, ZonesProbed apart, and tests at least one
// entry per block and at most one per block and per zone.
func sameAsFlat[S, Q any](t *testing.T, what string, g *zonemap.Grid[S, Q], preds []expr.Ranges) {
	t.Helper()
	zones := g.Metadata().Zones
	blocks := (zones + zonemap.BlockZones - 1) / zonemap.BlockZones
	for _, r := range preds {
		got, want := g.Prune(r), zonemap.PruneFlat(g, r)
		if got.ZonesProbed < blocks || got.ZonesProbed > blocks+zones {
			t.Fatalf("%s, %v: %d entries probed, %d blocks over %d zones", what, r, got.ZonesProbed, blocks, zones)
		}
		got.ZonesProbed, want.ZonesProbed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %v: blocked probe %+v, flat walk %+v", what, r, got, want)
		}
	}
}

// The blocked Grid.Prune is the flat walk it replaced, apart from
// ZonesProbed: for both summary kinds and both code widths, over columns
// of several blocks with NULL-only zones and NULL-only blocks, runs that
// make zones covered, a partial last zone reached by Extend, and after
// in-place updates (Widen) and NULLs that gain a value (NoteNonNull), at
// every interval edge of the zone bounds.
func TestBlockedPruneMatchesFlat(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zoneSize := 1 + rng.Intn(5)
		n := zoneSize*zonemap.BlockZones*(1+rng.Intn(4)) + rng.Intn(zoneSize*zonemap.BlockZones)
		if n%zoneSize == 0 {
			n++ // a partial last zone
		}
		domain := int64(50 + rng.Intn(500))
		codes, nulls := make([]int64, n), bitvec.New(n)
		run := 1 + rng.Intn(3*zoneSize) // sorted runs of equal codes: covered zones
		nullBlock := rng.Intn(n/(zoneSize*zonemap.BlockZones) + 1)
		for i := range codes {
			codes[i] = (int64(i/run)*7 + rng.Int63n(2)) % domain
			zi := i / zoneSize
			if zi/zonemap.BlockZones == nullBlock || zi%11 == 3 || rng.Intn(20) == 0 {
				nulls.Set(i) // a NULL-only block, NULL-only zones, scattered NULLs
			}
		}
		bins := imprint.Learn(storage.Vec{W: codes}, nulls)
		var bounds []int64 // the min and max of 12 zones picked at random
		for k := 0; k < 12; k++ {
			lo := rng.Intn(n/zoneSize+1) * zoneSize
			zmin, zmax := int64(domain), int64(-1)
			for i := lo; i < min(lo+zoneSize, n); i++ {
				if !nulls.Get(i) {
					zmin, zmax = min(zmin, codes[i]), max(zmax, codes[i])
				}
			}
			bounds = append(bounds, zmin, zmax)
		}
		preds := edgeRanges(rng, bounds, domain)
		// Both kinds over both views, each built over a prefix and extended
		// to the partial last zone; checks re-probes every grid.
		var grids []core.Skipper
		var checks []func(what string)
		for _, view := range []storage.Vec{{W: codes}, narrowView(codes)} {
			what := fmt.Sprintf("seed %d, zone size %d, %d rows, %d-byte codes", seed, zoneSize, n, view.Width())
			static := zonemap.Build(view.Slice(0, n/2), nulls, zoneSize)
			imp := zonemap.NewGrid(bins, view.Slice(0, n/3), nulls, zoneSize)
			static.Extend(view, nulls)
			imp.Extend(view, nulls)
			grids = append(grids, static, imp)
			checks = append(checks,
				func(when string) { sameAsFlat(t, what+", static"+when, static, preds) },
				func(when string) { sameAsFlat(t, what+", imprint"+when, imp, preds) })
		}
		for _, check := range checks {
			check("")
		}
		// Updates, as the engine makes them: a value written over a value
		// or over a NULL (Widen, then NoteNonNull), half of them in the
		// NULL-only block. Only the null map follows them, so that a row
		// gains a value once: a grid sees an update through Widen and
		// NoteNonNull alone.
		blockRows := zoneSize * zonemap.BlockZones
		for k := 0; k < 12; k++ {
			row := rng.Intn(n)
			if k%2 == 0 {
				row = min(n-1, nullBlock*blockRows+rng.Intn(blockRows))
			}
			code := rng.Int63n(2 * domain)
			wasNull := nulls.Get(row)
			nulls.Clear(row)
			for _, g := range grids {
				g.Widen(row, code)
				if wasNull {
					g.NoteNonNull(row)
				}
			}
			preds = append(preds, oneRange(code, code), oneRange(code-1, code+1))
			for _, check := range checks {
				check(fmt.Sprintf(", after update %d (row %d, code %d, was NULL %v)", k, row, code, wasNull))
			}
		}
	}
}
