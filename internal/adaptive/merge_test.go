package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adskip/internal/expr"
	"adskip/internal/obs"
)

// sweepReference is the merge sweep as one pass that rewrites every zone,
// whether or not any merges: the reference mergeSweep must agree with.
func sweepReference(z *Zonemap) bool {
	before := len(z.zones)
	out := z.zones[:0]
	var merged []zone
	for i := 0; i < len(z.zones); {
		cur := z.zones[i]
		j := i + 1
		for j < len(z.zones) &&
			cur.heat < z.tune.mergeHeat &&
			z.zones[j].heat < z.tune.mergeHeat &&
			z.zones[j].hi-cur.lo <= z.tune.maxZoneRows &&
			boundsCompatible(&cur, &z.zones[j]) {
			cur = mergeZones(cur, z.zones[j])
			j++
		}
		if j-i > 1 {
			merged = append(merged, cur)
		}
		z.merges += j - i - 1
		out = append(out, cur)
		i = j
	}
	z.zones = out
	if len(merged) == 0 {
		return false
	}
	z.maintZones += int64(before - len(out))
	hullMin, hullMax := bounds(hullOf(merged))
	z.record(obs.LedgerRecord{
		Kind: obs.EventMerge, Cause: "merge-cold",
		ZonesBefore: before, ZonesAfter: len(out),
		RowLo: merged[0].lo, RowHi: merged[len(merged)-1].hi,
		MinBefore: hullMin, MaxBefore: hullMax,
		MinAfter: hullMin, MaxAfter: hullMax,
	})
	return true
}

// sweepZones returns n 100-row zones tiling [0, 100n) for one case of
// TestMergeSweepMatchesReference. Zones are hot, with bounds far apart from
// their neighbours', except: "none" has every other zone cold, still far
// apart; "start", "middle" and "end" have a run of two or three cold zones
// with one set of bounds there; "random" draws heat, bounds and all-NULL
// zones so that runs land anywhere.
func sweepZones(rng *rand.Rand, kind string, n int) []zone {
	zones := make([]zone, n)
	for i := range zones {
		zones[i] = zone{lo: 100 * i, hi: 100 * (i + 1), hull: expr.Hull{Min: int64(1000 * i), Max: int64(1000*i + 10)}, nonNull: 100, heat: 0.5}
	}
	run := 2 + rng.Intn(2) // at most MaxZoneRows: one merged zone
	var at int
	switch kind {
	case "none":
		for i := 0; i < n; i += 2 {
			zones[i].heat = 0.01
		}
		return zones
	case "start":
		at = 0
	case "middle":
		at = 1 + rng.Intn(n-run-1)
	case "end":
		at = n - run
	case "random":
		for i := range zones {
			if rng.Intn(2) == 0 {
				zones[i].heat = 0.02
			}
			zones[i].hull.Min = int64(rng.Intn(3) * 5)
			zones[i].hull.Max = zones[i].hull.Min + int64(rng.Intn(12))
			if rng.Intn(8) == 0 {
				zones[i].nonNull, zones[i].hull = 0, expr.EmptyHull
			}
		}
		return zones
	}
	for i := at; i < at+run; i++ {
		zones[i].heat, zones[i].hull = 0.01, expr.Hull{Min: 7, Max: 9}
	}
	return zones
}

// The merge sweep that leaves the zones ahead of the first mergeable pair
// in place, and returns at once when there is none, ends in the same zones,
// counters and ledger record as the sweep that rewrites every zone, and
// reports the first zone that sweep changed.
func TestMergeSweepMatchesReference(t *testing.T) {
	const n = 24
	for _, kind := range []string{"none", "start", "middle", "end", "random"} {
		for seed := int64(0); seed < 50; seed++ {
			zones := sweepZones(rand.New(rand.NewSource(seed)), kind, n)
			build := func() (*Zonemap, *[]obs.LedgerRecord) {
				cfg := Config{}.withDefaults()
				z := &Zonemap{cfg: cfg, tune: newTuning(cfg), enabled: true, rows: 100 * n, tailLo: 100 * n}
				z.tune.maxZoneRows = 350
				z.zones = slices.Clone(zones)
				z.rebuildBlocks(0)
				recs := new([]obs.LedgerRecord)
				z.SetJournal(func(r obs.LedgerRecord) { *recs = append(*recs, r) })
				return z, recs
			}
			got, gotRecs := build()
			want, wantRecs := build()
			first, wantOK := got.mergeSweep(), sweepReference(want)
			gotOK := first >= 0
			name := fmt.Sprintf("%s seed %d", kind, seed)
			if gotOK != wantOK || !slices.Equal(got.zones, want.zones) || got.merges != want.merges ||
				got.maintZones != want.maintZones || !reflect.DeepEqual(*gotRecs, *wantRecs) {
				t.Fatalf("%s: sweep = %v %+v merges %d maint %d %+v\nreference = %v %+v merges %d maint %d %+v", name,
					gotOK, got.zones, got.merges, got.maintZones, *gotRecs, wantOK, want.zones, want.merges, want.maintZones, *wantRecs)
			}
			// The zone the sweep reports is the first one the reference changed.
			moved := 0
			for moved < len(want.zones) && want.zones[moved] == zones[moved] {
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
