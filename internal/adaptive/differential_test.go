package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/imprint"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// directory is one skipper of the differential test with the handles on
// its zone directory the test needs: the rows the zones tile, the zones'
// windows, a way to move a zone's (or, fine, a part's) bounds, and one to
// spoil a summary, which returns its undo: the first block's is zeroed,
// the first zone's (with parts, the first part's) loosened.
type directory struct {
	core.Skipper
	indexed func() int
	zones   func() [][2]int
	move    func(fine bool, i, dLo, dHi int)
	spoil   func(block bool) (undo func())
}

// handles returns the directory handles of grid g, whose summaries loosen
// widens to let through one more value.
func handles[S comparable, Q any](sk core.Skipper, g *zonemap.Grid[S, Q], loosen func(S) S) directory {
	return directory{
		Skipper: sk,
		indexed: g.Indexed,
		zones: func() (ws [][2]int) {
			for _, zn := range g.Zones {
				lo, hi := zn.Rows()
				ws = append(ws, [2]int{lo, hi})
			}
			return ws
		},
		move: func(fine bool, i, dLo, dHi int) {
			if fine { // a part starts where the one before ends
				g.Parts[i].Hi = uint32(int(g.Parts[i].Hi) + dHi)
				return
			}
			g.Zones[i].Lo, g.Zones[i].Hi = uint32(int(g.Zones[i].Lo)+dLo), uint32(int(g.Zones[i].Hi)+dHi)
		},
		spoil: func(block bool) func() {
			var to S
			l := g.Blocks
			if !block {
				l = g.ZoneSums
				if g.Parts != nil {
					l = g.PartSums
				}
				to = loosen(l.At(0))
			}
			was := l.At(0)
			l.Set(0, to)
			return func() { l.Set(0, was) }
		},
	}
}

// nullsReference is PruneNulls as a walk of the rows: each zone's NULLs
// counted row by row, a zone without one skipped, an all-NULL zone
// covered, and the tail a candidate.
func nullsReference(d directory, nulls *bitvec.BitVec) core.PruneResult {
	ws := d.zones()
	res := core.PruneResult{Enabled: true, ZonesProbed: len(ws)}
	for _, w := range ws {
		k := 0
		for r := w[0]; r < w[1]; r++ {
			if nulls.Get(r) {
				k++
			}
		}
		res.Emit(&core.CandidateZone{Lo: w[0], Hi: w[1], Covered: k == w[1]-w[0]}, k == 0)
	}
	if d.Rows() > d.indexed() {
		res.Zones = append(res.Zones, core.CandidateZone{Lo: d.indexed(), Hi: d.Rows()})
	}
	return res
}

// splitAtRandom splits a random zone of z, one of two parts or more, at
// random part boundaries through the zonemap's own splice, as a query's
// split would.
func splitAtRandom(rng *rand.Rand, z *Zonemap) bool {
	for try := 0; try < 8 && len(z.Zones) > 0; try++ {
		i := rng.Intn(len(z.Zones))
		zn := z.Zones[i]
		first, end := int(zn.First), int(zn.First)
		for end < len(z.Parts) && z.Parts[end].Hi <= zn.Hi {
			end++
		}
		if end-first < 2 {
			continue
		}
		subs := []zone{z.Part(first)}
		for k := first + 1; k < end; k++ {
			if n, p := len(subs)-1, z.Part(k); rng.Intn(2) == 0 {
				subs[n] = join(subs[n], p)
			} else {
				subs = append(subs, p)
			}
		}
		if len(subs) < 2 {
			continue
		}
		z.Refold(z.splice([]edit{{idx: i, n: 1, zones: subs, l: learner{heat: 0.5}}}))
		return true
	}
	return false
}

// mergeAtRandom merges a random run of two to four zones of z into their
// union through the zonemap's own splice, as a query's merge would.
func mergeAtRandom(rng *rand.Rand, z *Zonemap) bool {
	if len(z.Zones) < 2 {
		return false
	}
	i := rng.Intn(len(z.Zones) - 1)
	e := edit{idx: i, n: min(len(z.Zones)-i, 2+rng.Intn(3)), zones: []zone{z.Zone(i)}, l: z.learn[i]}
	for j := i + 1; j < i+e.n; j++ {
		e.zones[0] = join(e.zones[0], z.Zone(j))
	}
	z.Refold(z.splice([]edit{e}))
	return true
}

// The one zone directory, under each of its layouts — the static zonemap,
// the imprint and the adaptive zonemap — runs the same seeded streams over
// columns with NULLs: appends in random batches, up to two zones' worth,
// so that they straddle fold boundaries; and, on the adaptive zonemap,
// splits at random part boundaries and merges of random runs through its
// own splice. After every step CheckInvariants
// passes — every summary is the one its rows derive — PruneNulls equals a
// reference counted row by row, and a random probe is sound. At the end of
// each stream seven breaks each fail the check, named in its error: a view
// a row short of the rows covered (its length), a block that is not its
// zones' union (the block), a summary that admits more than its rows hold
// (the two summaries), a row set NULL under the metadata (the stale
// count), a gap (the zone after it), an overlap (the zone that starts
// inside its neighbour) and a row written under the metadata (the row); on
// the adaptive zonemap a gap between parts names the part.
func TestZoneDirectoryDifferential(t *testing.T) {
	shapes := []string{"banded", "sorted", "semi-sorted", "uniform"}
	var folds, splits, merges, breaks int
	for seed := int64(0); seed < 24; seed++ {
		for _, layout := range []string{"static", "imprint", "adaptive"} {
			rng := rand.New(rand.NewSource(seed))
			shape := shapes[seed%int64(len(shapes))]
			zoneRows, floor := 8+rng.Intn(57), 2+rng.Intn(7)
			n := 1500 + rng.Intn(1500)
			codes, nulls, domain := propertyColumn(rng, shape, n, floor)
			if nulls == nil {
				nulls = bitvec.New(n)
			}
			for k := 0; k < n/10; k++ {
				nulls.Set(rng.Intn(n))
			}
			loaded := n / 3
			view := func() storage.Vec { return storage.Vec{W: codes[:loaded]} }
			var d directory
			var z *Zonemap
			switch layout {
			case "static":
				g := zonemap.Build(view(), nulls, zoneRows)
				d = handles(g, g, loosenHull)
			case "imprint":
				bins := imprint.Learn(storage.Vec{W: codes}, nulls) // from the whole column, as a later build's
				g := zonemap.NewGrid(bins, view(), nulls, zoneRows)
				d = handles(g, g, func(m uint64) uint64 { return m | ^m&(m+1) }) // the lowest bin it lacks
			case "adaptive":
				z = New(view(), nulls, zoneRows, floor)
				d = handles(z, &z.Grid, loosenHull)
			}
			what := fmt.Sprintf("seed %d, %s, %s, %d-row zones", seed, shape, layout, zoneRows)
			check := func(step int, op string) {
				t.Helper()
				if err := d.CheckInvariants(view(), nulls); err != nil {
					t.Fatalf("%s, step %d (%s): %v", what, step, op, err)
				}
				if got, want := d.PruneNulls(), nullsReference(d, nulls); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, step %d (%s): PruneNulls %+v, row by row %+v", what, step, op, got, want)
				}
				r := propertyRanges(rng, domain)
				match := func(i int) bool { return !nulls.Get(i) && r.Contains(codes[i]) }
				if err := checkPrune(d.Prune(r), loaded, match); err != nil {
					t.Fatalf("%s, step %d (%s), probe %v: %v", what, step, op, r, err)
				}
			}
			check(0, "build")
			for step := 1; step <= 120; step++ {
				switch k := rng.Intn(10); {
				case k < 3 && loaded < n:
					indexed := d.indexed()
					loaded = min(n, loaded+1+rng.Intn(2*zoneRows))
					d.Extend(view(), nulls)
					if d.indexed() != indexed {
						folds++
					}
					check(step, "append")
				case k < 6 && z != nil && splitAtRandom(rng, z):
					splits++
					check(step, "split")
				case k < 10 && z != nil && mergeAtRandom(rng, z):
					merges++
					check(step, "merge")
				}
			}

			// The breaks, each undone before the next.
			mustFailOn := func(v storage.Vec, how, names string) {
				t.Helper()
				breaks++
				err := d.CheckInvariants(v, nulls)
				if err == nil || !strings.Contains(err.Error(), names) {
					t.Fatalf("%s: %s: CheckInvariants says %v, want an error naming %q", what, how, err, names)
				}
			}
			mustFail := func(how, names string) { t.Helper(); mustFailOn(view(), how, names) }
			mustFailOn(storage.Vec{W: codes[:loaded-1]}, "a view a row short", fmt.Sprintf("for a column of %d rows", loaded-1))
			undo := d.spoil(true)
			mustFail("a block that is not its zones' union", "block 0")
			undo()
			undo = d.spoil(false)
			mustFail("a summary looser than its rows derive", "its rows derive")
			undo()
			row := rng.Intn(loaded)
			for nulls.Get(row) {
				row = (row + 1) % loaded
			}
			nulls.Set(row)
			mustFail(fmt.Sprintf("row %d set NULL under the metadata", row), "its rows hold")
			nulls.Clear(row)
			ws := d.zones()
			i := rng.Intn(len(ws))
			for ws[i][1]-ws[i][0] < 2 || i+1 == len(ws) {
				i = (i + 1) % len(ws)
			}
			d.move(false, i, 0, -1)
			mustFail("a gap after zone "+fmt.Sprint(i), fmt.Sprintf("zone %d starts at %d, want %d", i+1, ws[i][1], ws[i][1]-1))
			d.move(false, i, 0, 1)
			d.move(false, i+1, -1, 0)
			mustFail("zone "+fmt.Sprint(i+1)+" overlapping zone "+fmt.Sprint(i), fmt.Sprintf("zone %d starts at %d, want %d", i+1, ws[i][1]-1, ws[i][1]))
			d.move(false, i+1, 1, 0)
			if z != nil { // the last part of a zone, not the last, ends a row short of it
				zi, k := rng.Intn(len(z.Zones)-1), 0
				for ; ; zi = (zi + 1) % (len(z.Zones) - 1) {
					if k = int(z.Zones[zi+1].First) - 1; z.Parts[k].Hi-z.Part(k).Lo >= 2 {
						break
					}
				}
				d.move(true, k, 0, -1)
				mustFail(fmt.Sprintf("part %d a row short of zone %d", k, zi), fmt.Sprintf("zone %d [%d,%d) ends inside part %d", zi, z.Zones[zi].Lo, z.Zones[zi].Hi, k+1))
				d.move(true, k, 0, 1)
			}
			for try := 0; try < 64; try++ {
				row := rng.Intn(loaded)
				was := codes[row]
				for _, c := range []int64{1 << 40, -1 << 40} {
					codes[row] = c
					if nulls.Get(row) || windowsHold(d.Prune(oneRange(c, c)), row) {
						continue // the metadata admits c there: nothing is excluded
					}
					mustFail(fmt.Sprintf("%d written under the metadata at row %d", c, row), fmt.Sprintf("exclude row %d code %d", row, c))
					try = 64
					break
				}
				codes[row] = was
			}
			if err := d.CheckInvariants(view(), nulls); err != nil {
				t.Fatalf("%s: after the breaks were undone: %v", what, err)
			}
		}
	}
	t.Logf("%d folds, %d splits, %d merges, %d breaks", folds, splits, merges, breaks)
	if folds < 1000 || splits < 400 || merges < 400 || breaks != 24*(3*7+1) {
		t.Fatalf("the streams folded %d tails, made %d splits and %d merges, and %d breaks",
			folds, splits, merges, breaks)
	}
}

// loosenHull lets one more value through h.
func loosenHull(h expr.Hull) expr.Hull { h.Max++; return h }

// windowsHold reports whether a window of res holds row.
func windowsHold(res core.PruneResult, row int) bool {
	for _, c := range res.Zones {
		if c.Lo <= row && row < c.Hi {
			return true
		}
	}
	return false
}

// The directory widens in place on the append that escalates its column.
// Static, imprint and adaptive directories are built over a column's
// 4-byte view, and twins over its 8-byte view; the adaptive pair learns
// from the same queries. Three rows holding a code of 2^40 and a negative
// one then escalate the column and wait in the tail, and a batch that
// folds follows; every directory takes each in from the widened column.
// After each, every directory passes CheckInvariants, stores its hulls at
// 8 bytes (the imprint's masks have no width), and probes as its twin does
// — at the end the static and the imprint also as a fresh build over the
// widened column — on a fixed set of predicates; and the adaptive zonemap
// has kept the zones, hulls and learners it had learned.
func TestDirectoryEscalation(t *testing.T) {
	const zoneRows, floor, n0 = 32, 4, 32 * 40
	rng := rand.New(rand.NewSource(3))
	codes, _, domain := propertyColumn(rng, "banded", n0, floor)
	batch := []int64{7, 1 << 40, -3}
	for len(batch) < 2*zoneRows+5 {
		batch = append(batch, rng.Int63n(domain))
	}
	all := append(slices.Clone(codes), batch...)
	narrow, nulls := make([]uint32, n0), bitvec.New(len(all))
	for i, c := range codes {
		narrow[i] = uint32(c)
		if rng.Intn(9) == 0 || i/zoneRows == 5 {
			nulls.Set(i) // scattered NULLs and a NULL-only zone
		}
	}
	wide := storage.Vec{W: all}
	bins := imprint.Learn(wide, nulls)
	preds := []expr.Ranges{oneRange(-5, -1), oneRange(1<<40, 1<<40), oneRange(0, domain/3), expr.Full(), {},
		expr.Ranges{Lo: []int64{-3, 100, domain / 2}, Hi: []int64{-3, domain / 4, 1 << 41}}}
	for k := 0; k < 8; k++ {
		preds = append(preds, propertyRanges(rng, domain))
	}
	type pair struct {
		name               string
		grown, twin, fresh core.Skipper
		hulls              func(core.Skipper) []zonemap.Level[expr.Hull, zonemap.Clause]
	}
	levels := func(g *zonemap.Grid[expr.Hull, zonemap.Clause]) []zonemap.Level[expr.Hull, zonemap.Clause] {
		return []zonemap.Level[expr.Hull, zonemap.Clause]{g.ZoneSums, g.Blocks, g.PartSums}
	}
	az, atwin := New(storage.Vec{N: narrow}, nulls, zoneRows, floor), New(storage.Vec{W: codes}, nulls, zoneRows, floor)
	az.Ablate(Arbitration) // probing, whatever the queries earn
	atwin.Ablate(Arbitration)
	for q := 0; q < 200; q++ {
		r := propertyRanges(rng, domain)
		az.Observe(az.Prune(r))
		atwin.Observe(atwin.Prune(r))
	}
	zones, learn := zonesOf(az), slices.Clone(az.learn)
	if st := az.Stats(); st.Splits == 0 {
		t.Fatalf("the queries taught the zonemap nothing: %+v", st)
	}
	for _, p := range []pair{
		{name: "static", grown: zonemap.Build(storage.Vec{N: narrow}, nulls, zoneRows), twin: zonemap.Build(storage.Vec{W: codes}, nulls, zoneRows),
			fresh: zonemap.Build(wide, nulls, zoneRows),
			hulls: func(sk core.Skipper) []zonemap.Level[expr.Hull, zonemap.Clause] {
				return levels(sk.(*zonemap.Grid[expr.Hull, zonemap.Clause]))
			}},
		{name: "imprint", grown: zonemap.NewGrid(bins, storage.Vec{N: narrow}, nulls, zoneRows), twin: zonemap.NewGrid(bins, storage.Vec{W: codes}, nulls, zoneRows),
			fresh: zonemap.NewGrid(bins, wide, nulls, zoneRows)},
		{name: "adaptive", grown: az, twin: atwin,
			hulls: func(sk core.Skipper) []zonemap.Level[expr.Hull, zonemap.Clause] { return levels(&sk.(*Zonemap).Grid) }},
	} {
		if p.hulls != nil {
			for _, l := range p.hulls(p.grown) {
				if _, ok := l.(*zonemap.Hulls[uint32]); !ok {
					t.Fatalf("%s over the 4-byte view: a level is %T", p.name, l)
				}
			}
		}
		// First the three rows that escalate the column, which wait in the
		// tail, then the rest, which fold.
		for _, rows := range []int{n0 + 3, len(all)} {
			view := storage.Vec{W: all[:rows]}
			p.grown.Extend(view, nulls)
			p.twin.Extend(view, nulls)
			if err := p.grown.CheckInvariants(view, nulls); err != nil {
				t.Fatalf("%s after the escalating append, %d rows: %v", p.name, rows, err)
			}
			if p.hulls != nil {
				for _, l := range p.hulls(p.grown) {
					if _, ok := l.(*zonemap.Hulls[int64]); !ok {
						t.Fatalf("%s after the escalating append, %d rows: a level is %T", p.name, rows, l)
					}
				}
			}
			for _, r := range preds {
				got := p.grown.Prune(r)
				if want := p.twin.Prune(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d rows, %v: escalated %+v, built wide %+v", p.name, rows, r, got, want)
				}
				if p.fresh != nil && rows == len(all) {
					if want := p.fresh.Prune(r); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %v: escalated %+v, fresh build %+v", p.name, r, got, want)
					}
				}
				match := func(i int) bool { return !nulls.Get(i) && r.Contains(all[i]) }
				if err := checkPrune(got, rows, match); err != nil {
					t.Fatalf("%s, %d rows, %v: %v", p.name, rows, r, err)
				}
			}
		}
	}
	if got := zonesOf(az)[:len(zones)]; !slices.Equal(got, zones) || !slices.Equal(az.learn[:len(learn)], learn) {
		t.Fatalf("the widening lost learned zones or learners: %+v, was %+v", got, zones)
	}
}
