package adaptive

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// A merge is decided where the query looks. Three blocks of 64 zones of
// 100 rows: the first and the last hold values 0–9 in every zone, the
// middle one 1,000–1,009. The first query, [3, 5], enters the outer blocks
// and rules out the middle one by its hull alone. Each cold run of
// compatible zones in an entered block merges on that query, into their
// union at the warmer of their heats: one inside the first block, one at
// its end and one at the start of the last block, which stay apart across
// the middle. The middle block is all cold and compatible zones, which a
// merge would coalesce if the walk read them: its zones and learners are
// left exactly as they were.
func TestMergeWhereTheQueryLooks(t *testing.T) {
	const blocks, rows, bz = 3, 100, zonemap.BlockZones
	codes := seqCodes(blocks*bz*rows, func(i int) int64 {
		if i/(bz*rows) == 1 {
			return 1000 + int64(i%10)
		}
		return int64(i % 10)
	})
	z := small(New(storage.Vec{W: codes}, nil, rows, rows))
	if len(z.Zones) != blocks*bz || len(z.Blocks) != blocks {
		t.Fatalf("precondition: %d zones in %d blocks", len(z.Zones), len(z.Blocks))
	}
	for _, i := range []int{10, 11, 12, bz - 2, bz - 1, 2 * bz, 2*bz + 1} {
		z.learn[i].heat = 0.01
	}
	z.learn[11].heat = 0.04
	for i := bz; i < 2*bz; i++ {
		z.learn[i].heat = 0.01
	}
	middle := func(z *Zonemap, merged int) (zones []zone, learn []learner) {
		return z.Zones[bz-merged : 2*bz-merged], z.learn[bz-merged : 2*bz-merged]
	}
	wantZones, wantLearn := middle(z, 0)
	wantZones, wantLearn = slices.Clone(wantZones), slices.Clone(wantLearn)

	z.Observe(z.Prune(oneRange(3, 5)))

	if z.queries != 1 || z.Stats().Merges != 4 || len(z.Zones) != blocks*bz-4 {
		t.Fatalf("query %d: %d merges, %d zones; want three runs merged on this query", z.queries, z.Stats().Merges, len(z.Zones))
	}
	for _, m := range []struct{ at, lo, hi int }{{10, 10, 13}, {bz - 4, bz - 2, bz}, {2*bz - 3, 2 * bz, 2*bz + 2}} {
		zn, l := z.Zones[m.at], z.learn[m.at]
		if lo, hi := zn.Rows(); lo != m.lo*rows || hi != m.hi*rows || int(zn.First) != m.lo || l.heat >= MergeHeat || (m.at == 10) != (l.heat > 0.01) {
			t.Fatalf("zone %d %+v, learner %+v: want zones %d–%d merged", m.at, zn, l, m.lo, m.hi-1)
		}
	}
	if gotZones, gotLearn := middle(z, 3); !slices.Equal(gotZones, wantZones) || !slices.Equal(gotLearn, wantLearn) {
		t.Fatal("the walk edited zones, or read or wrote learners, in the block the query ruled out")
	}
	if err := z.CheckInvariants(storage.Vec{W: codes}, nil); err != nil {
		t.Fatal(err)
	}
}

// sweepZones returns n 100-row zones tiling [0, 100n), and their learners,
// for one case of TestColdRunMergesMatchReference. Zones are hot, with
// bounds far apart from their neighbours', except: "none" has every other
// zone cold, still far apart; "start", "middle" and "end" have a run of two
// or three cold zones with one set of bounds there; "random" draws heat,
// cold ones unequal, bounds and all-NULL zones so that runs land anywhere.
func sweepZones(rng *rand.Rand, kind string, n int) ([]zone, []learner) {
	zones, learn := make([]zone, n), make([]learner, n)
	for i := range zones {
		zones[i] = zone{Lo: uint32(100 * i), Hi: uint32(100 * (i + 1)), Sum: expr.Hull{Min: int64(1000 * i), Max: int64(1000*i + 10)}, NonNull: 100, First: uint32(i)}
		learn[i] = learner{heat: 0.5}
	}
	run := 2 + rng.Intn(2)
	var at int
	switch kind {
	case "none":
		for i := 0; i < n; i += 2 {
			learn[i].heat = 0.01
		}
		return zones, learn
	case "start":
		at = 0
	case "middle":
		at = 1 + rng.Intn(n-run-1)
	case "end":
		at = n - run
	case "random":
		for i := range zones {
			if rng.Intn(2) == 0 {
				learn[i].heat = []float64{0.01, 0.02, 0.04}[rng.Intn(3)]
			}
			zones[i].Sum.Min = int64(rng.Intn(3) * 5)
			zones[i].Sum.Max = zones[i].Sum.Min + int64(rng.Intn(12))
			if rng.Intn(8) == 0 {
				zones[i].NonNull, zones[i].Sum = 0, expr.EmptyHull
			}
		}
		return zones, learn
	}
	for i := at; i < at+run; i++ {
		learn[i].heat, zones[i].Sum = 0.01, expr.Hull{Min: 7, Max: 9}
	}
	return zones, learn
}

// A query's merges of cold runs — none, one at the directory's first zone,
// in its middle or at its last zone, or anywhere in a random draw — end in
// the same zones, learners, counters and ledger records as the reference
// that merges by a walk of every zone and re-hulls every block. Each zone
// holds the column sweepZones describes, with its last row NULL (or every
// row, for an all-NULL zone), so a query over the whole domain scans every
// zone with a value and cools it.
func TestColdRunMergesMatchReference(t *testing.T) {
	const n, rows = 24, 100
	for _, kind := range []string{"none", "start", "middle", "end", "random"} {
		for seed := int64(0); seed < 50; seed++ {
			zones, learn := sweepZones(rand.New(rand.NewSource(seed)), kind, n)
			codes, nulls := make([]int64, n*rows), bitvec.New(n*rows)
			for i, zn := range zones {
				for k := range rows {
					if zn.NonNull == 0 || k == rows-1 {
						nulls.Set(int(zn.Lo) + k)
						continue
					}
					codes[int(zn.Lo)+k] = zn.Sum.Min + int64(k)%(zn.Sum.Max-zn.Sum.Min+1)
				}
				zones[i].NonNull = min(zn.NonNull, rows-1)
			}
			build := func() (*Zonemap, *[]obs.LedgerRecord) {
				z := New(storage.Vec{W: codes}, nulls, rows, rows)
				if !slices.Equal(z.Zones, zones) {
					t.Fatalf("precondition: built zones %+v, want %+v", z.Zones, zones)
				}
				z.learn = slices.Clone(learn)
				recs := new([]obs.LedgerRecord)
				z.SetJournal(func(r obs.LedgerRecord) { *recs = append(*recs, r) })
				return z, recs
			}
			got, gotRecs := build()
			want, wantRecs := build()
			res := got.Prune(oneRange(0, 1000*n))
			got.Observe(res)
			observeReference(want, res)
			name := fmt.Sprintf("%s seed %d", kind, seed)
			if err := sameDirectory(got, want, *gotRecs, *wantRecs); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Each case reaches what it is named for.
			merged := len(*wantRecs) > 0
			switch {
			case kind == "none" && merged:
				t.Fatalf("%s: merged", name)
			case kind != "none" && kind != "random" && !merged:
				t.Fatalf("%s: nothing merged", name)
			case kind == "start" && (*wantRecs)[0].RowLo != 0, kind == "end" && (*wantRecs)[0].RowHi != rows*n,
				kind == "middle" && ((*wantRecs)[0].RowLo == 0 || (*wantRecs)[0].RowHi == rows*n):
				t.Fatalf("%s: merged rows [%d,%d)", name, (*wantRecs)[0].RowLo, (*wantRecs)[0].RowHi)
			}
			if err := got.CheckInvariants(storage.Vec{W: codes}, nulls); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
