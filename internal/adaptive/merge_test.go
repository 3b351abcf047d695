package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
)

// sweepReference is the merge sweep as one pass that rewrites every zone,
// whether or not any merges: the reference mergeSweep must agree with.
func sweepReference(z *Zonemap) bool {
	before := len(z.Zones)
	var out []zone
	var learn []learner
	var merged []zone
	for i := 0; i < len(z.Zones); {
		cur, l := z.Zones[i], z.learn[i]
		j := i + 1
		for j < len(z.Zones) &&
			l.heat < z.tune.mergeHeat &&
			z.learn[j].heat < z.tune.mergeHeat &&
			boundsCompatible(&cur, &z.Zones[j]) {
			cur = zone{Lo: cur.Lo, Hi: z.Zones[j].Hi, Sum: cur.Sum.Union(z.Zones[j].Sum), NonNull: cur.NonNull + z.Zones[j].NonNull}
			l = learner{heat: max(l.heat, z.learn[j].heat), first: l.first, widened: l.widened || z.learn[j].widened}
			j++
		}
		if j-i > 1 {
			merged = append(merged, cur)
		}
		z.merges += j - i - 1
		out, learn = append(out, cur), append(learn, l)
		i = j
	}
	z.Zones, z.learn = out, learn
	if len(merged) == 0 {
		return false
	}
	z.maintZones += int64(before - len(out))
	hullMin, hullMax := bounds(hullOf(merged))
	z.record(obs.LedgerRecord{
		Kind: obs.EventMerge, Cause: "merge-cold",
		ZonesBefore: before, ZonesAfter: len(out),
		RowLo: merged[0].Lo, RowHi: merged[len(merged)-1].Hi,
		MinBefore: hullMin, MaxBefore: hullMax,
		MinAfter: hullMin, MaxAfter: hullMax,
	})
	return true
}

// sweepZones returns n 100-row zones tiling [0, 100n), and their learners,
// for one case of TestMergeSweepMatchesReference. Zones are hot, with
// bounds far apart from their neighbours', except: "none" has every other
// zone cold, still far apart; "start", "middle" and "end" have a run of two
// or three cold zones with one set of bounds there; "random" draws heat,
// bounds and all-NULL zones so that runs land anywhere.
func sweepZones(rng *rand.Rand, kind string, n int) ([]zone, []learner) {
	zones, learn := make([]zone, n), make([]learner, n)
	for i := range zones {
		zones[i] = zone{Lo: 100 * i, Hi: 100 * (i + 1), Sum: expr.Hull{Min: int64(1000 * i), Max: int64(1000*i + 10)}, NonNull: 100}
		learn[i] = learner{heat: 0.5, first: int32(i), widened: rng.Intn(4) == 0}
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
				learn[i].heat = 0.02
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

// The merge sweep that leaves the zones ahead of the first mergeable pair
// in place, and returns at once when there is none, ends in the same zones,
// learners, counters and ledger record as the sweep that rewrites every
// zone, and reports the first zone that sweep changed.
func TestMergeSweepMatchesReference(t *testing.T) {
	const n = 24
	for _, kind := range []string{"none", "start", "middle", "end", "random"} {
		for seed := int64(0); seed < 50; seed++ {
			zones, learn := sweepZones(rand.New(rand.NewSource(seed)), kind, n)
			build := func() (*Zonemap, *[]obs.LedgerRecord) {
				z := New(storage.Vec{W: make([]int64, 100*n)}, nil, Config{InitialZoneRows: 100, MinZoneRows: 100})
				z.Zones, z.learn = slices.Clone(zones), slices.Clone(learn)
				z.Refold(0)
				recs := new([]obs.LedgerRecord)
				z.SetJournal(func(r obs.LedgerRecord) { *recs = append(*recs, r) })
				return z, recs
			}
			got, gotRecs := build()
			want, wantRecs := build()
			first, wantOK := got.mergeSweep(), sweepReference(want)
			gotOK := first >= 0
			name := fmt.Sprintf("%s seed %d", kind, seed)
			if gotOK != wantOK || !slices.Equal(got.Zones, want.Zones) || !slices.Equal(got.learn, want.learn) || got.merges != want.merges ||
				got.maintZones != want.maintZones || !reflect.DeepEqual(*gotRecs, *wantRecs) {
				t.Fatalf("%s: sweep = %v %+v merges %d maint %d %+v\nreference = %v %+v merges %d maint %d %+v", name,
					gotOK, got.Zones, got.merges, got.maintZones, *gotRecs, wantOK, want.Zones, want.merges, want.maintZones, *wantRecs)
			}
			// The zone the sweep reports is the first one the reference changed.
			moved := 0
			for moved < len(want.Zones) && want.Zones[moved] == zones[moved] && want.learn[moved] == learn[moved] {
				moved++
			}
			if wantOK && first != moved {
				t.Fatalf("%s: sweep reports zone %d as the first it changed, the reference changed zone %d", name, first, moved)
			}
			// Each case reaches what it is named for.
			switch {
			case kind == "none" && wantOK:
				t.Fatalf("%s: merged", name)
			case kind != "none" && kind != "random" && !wantOK:
				t.Fatalf("%s: nothing merged", name)
			case kind == "start" && (*wantRecs)[0].RowLo != 0, kind == "end" && (*wantRecs)[0].RowHi != 100*n,
				kind == "middle" && ((*wantRecs)[0].RowLo == 0 || (*wantRecs)[0].RowHi == 100*n):
				t.Fatalf("%s: merged rows [%d,%d)", name, (*wantRecs)[0].RowLo, (*wantRecs)[0].RowHi)
			}
		}
	}
}
