package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// spliceReference applies plans the way the zone directory was once
// rebuilt: every zone is copied into a fresh slice, the planned ones looked
// up in a map and replaced by their sub-zones.
func spliceReference(z *Zonemap, plans []splitPlan) {
	byIdx := make(map[int][]zone, len(plans))
	for _, p := range plans {
		byIdx[p.idx] = p.subs
	}
	var out []zone
	for i := range z.zones {
		subs, ok := byIdx[i]
		if !ok {
			out = append(out, z.zones[i])
			continue
		}
		parent := &z.zones[i]
		minBefore, maxBefore := bounds(parent.hull)
		minAfter, maxAfter := bounds(hullOf(subs))
		z.record(obs.LedgerRecord{
			Kind: obs.EventSplit, Cause: "split-gain",
			ZonesBefore: 1, ZonesAfter: len(subs),
			RowLo: parent.lo, RowHi: parent.hi,
			MinBefore: minBefore, MaxBefore: maxBefore,
			MinAfter: minAfter, MaxAfter: maxAfter,
		})
		out = append(out, subs...)
		z.splits += len(subs) - 1
		z.maintZones += int64(len(subs))
	}
	z.zones = out
}

// blocksReference recomputes the whole coarse level from the zone slice.
func blocksReference(z *Zonemap) {
	z.blocks = make(zonemap.Blocks[expr.Hull, expr.Clause], (len(z.zones)+zonemap.BlockZones-1)/zonemap.BlockZones)
	for bi := range z.blocks {
		lo, hi := zonemap.Members(bi, len(z.zones))
		b := &z.blocks[bi]
		b.Sum = hullOf(z.zones[lo:hi])
		b.HasData = !b.Sum.Empty()
	}
}

// observeReference is Observe with the directory edited the old way: the
// probe's verdicts and arbitration run through Observe itself, with
// splitting and merging switched off; the splits are then planned from
// stats in any order, spliced by spliceReference, swept by sweepReference,
// and every block is re-hulled.
func observeReference(z *Zonemap, res core.PruneResult, stats []core.ZoneStats) {
	cfg := z.cfg
	z.cfg.DisableSplit, z.cfg.DisableMerge = true, true
	z.Observe(res, nil)
	z.cfg = cfg
	if !res.Enabled || !z.enabled {
		return
	}
	var plans []splitPlan
	budget := z.tune.maxZones - len(z.zones)
	if z.cfg.DisableSplit {
		stats = nil
	}
	for _, st := range stats {
		n := len(st.Parts)
		if st.ID < 0 || st.ID >= len(z.zones) || n < 2 ||
			st.Parts[0].Lo != z.zones[st.ID].lo || st.Parts[n-1].Hi != z.zones[st.ID].hi {
			continue
		}
		zn := &z.zones[st.ID]
		if subs := z.planSplit(st.Parts, res.Ranges, budget); subs != nil {
			budget -= len(subs) - 1
			plans = append(plans, splitPlan{idx: st.ID, subs: subs})
			continue
		}
		if zn.statFail < 5 {
			zn.statFail++
		}
		zn.statSkip = uint16(4) << zn.statFail
	}
	if len(plans) > 0 {
		spliceReference(z, plans)
		z.maintEvents++
	}
	merged := !z.cfg.DisableMerge && z.queries%z.tune.mergeSweepEvery == 0 && sweepReference(z)
	if merged {
		z.maintEvents++
	}
	if len(plans) > 0 || merged {
		blocksReference(z)
	}
}

// sameDirectory fails unless z and ref are in the same state — zones,
// blocks, counters, arbitration — and journaled the same records.
func sameDirectory(z, ref *Zonemap, recs, refRecs []obs.LedgerRecord) error {
	switch {
	case !slices.Equal(z.zones, ref.zones):
		return fmt.Errorf("%d zones %+v, reference %d %+v", len(z.zones), z.zones, len(ref.zones), ref.zones)
	case !slices.Equal(z.blocks, ref.blocks):
		return fmt.Errorf("%d blocks %+v, reference %d %+v", len(z.blocks), z.blocks, len(ref.blocks), ref.blocks)
	case !reflect.DeepEqual(recs, refRecs):
		return fmt.Errorf("journal %+v, reference %+v", recs, refRecs)
	}
	// The rest by value; func values are DeepEqual only when nil.
	a, b := *z, *ref
	a.zones, a.blocks, a.journal, b.zones, b.blocks, b.journal = nil, nil, nil, nil, nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("state %+v, reference %+v", a, b)
	}
	return nil
}

// The zone directory edited in place — splits spliced in one backward
// pass, merges from the first mergeable pair, tail folds appended, and the
// coarse level re-hulled from the block of the first zone that moved — is
// the directory the old whole-slice rebuild produced. Seeded streams of
// range queries, appends that fold the tail, and in-place updates that
// widen zones run against both; after every Observe and fold the zonemaps
// must be in the same state and have journaled the same records.
func TestDirectoryEditsMatchReference(t *testing.T) {
	shapes := []string{"banded", "sorted", "semi-sorted", "uniform"}
	var splits, merges, folds, widens, multiBlock int
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[seed%int64(len(shapes))]
		floor := 4 + rng.Intn(13)
		cfg := Config{
			InitialZoneRows: floor * (4 + rng.Intn(13)),
			MinZoneRows:     floor,
			SplitParts:      2 + rng.Intn(7),
		}
		n := 6000 + rng.Intn(6000)
		codes, nulls, domain := propertyColumn(rng, shape, n, floor)
		loaded := n / 2
		z, ref := New(storage.Vec{W: codes[:loaded]}, nulls, cfg), New(storage.Vec{W: codes[:loaded]}, nulls, cfg)
		var recs, refRecs []obs.LedgerRecord
		z.SetJournal(func(r obs.LedgerRecord) { recs = append(recs, r) })
		ref.SetJournal(func(r obs.LedgerRecord) { refRecs = append(refRecs, r) })
		tune := newTuning(cfg.withDefaults())
		tune.maxZones, tune.window = 2000, 8+rng.Intn(25)
		tune.mergeSweepEvery, tune.reprobeEvery = 1+rng.Intn(8), 1+rng.Intn(8)
		tune.mergeHeat = []float64{MergeHeat, 0.2, 0.4}[rng.Intn(3)]
		tune.tailFoldRows = cfg.InitialZoneRows * (1 + rng.Intn(4))
		z.tune, ref.tune = tune, tune
		check := func(what string, arg any) {
			t.Helper()
			if err := sameDirectory(z, ref, recs, refRecs); err != nil {
				t.Fatalf("seed %d, %s, after %s %v: %v", seed, shape, what, arg, err)
			}
			recs, refRecs = recs[:0], refRecs[:0]
			if len(z.blocks) > 1 {
				multiBlock++
			}
		}
		for q := 0; q < 300; q++ {
			switch k := rng.Intn(20); {
			case k == 0 && loaded < n: // append, and fold once the tail is long enough
				loaded = min(n, loaded+1+rng.Intn(cfg.InitialZoneRows))
				view, tailLo := storage.Vec{W: codes[:loaded]}, ref.tailLo
				z.Extend(view, nulls)
				if ref.Extend(view, nulls); ref.tailLo != tailLo {
					blocksReference(ref)
					folds++
				}
				check("append to rows", loaded)
			case k == 1 && loaded > z.tailLo: // fold whatever the tail holds
				view := storage.Vec{W: codes[:loaded]}
				z.FoldTail(view, nulls)
				ref.FoldTail(view, nulls)
				blocksReference(ref)
				folds++
				check("fold at row", loaded)
			case k == 2 && z.tailLo > 0: // an in-place update, as the engine makes it
				row, code := rng.Intn(z.tailLo), rng.Int63n(domain)
				wasNull := nulls != nil && nulls.Get(row)
				codes[row] = code
				if wasNull {
					nulls.Clear(row)
				}
				for _, m := range []*Zonemap{z, ref} {
					m.Widen(row, code)
					if wasNull {
						m.NoteNonNull(row)
					}
				}
				widens++
				check("update of row", row)
			default:
				r := propertyRanges(rng, domain)
				view := storage.Vec{W: codes[:loaded]}
				res := z.Prune(r)
				_, _, stats := scanCandidates(res, r, view, nulls)
				splitsBefore, mergesBefore := z.splits, z.merges
				z.Observe(res, stats)
				observeReference(ref, res, stats)
				splits += z.splits - splitsBefore
				merges += z.merges - mergesBefore
				check("query", r)
			}
		}
		if err := z.CheckInvariants(storage.Vec{W: codes[:loaded]}, nulls, true); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, shape, err)
		}
	}
	if splits < 4000 || merges < 200 || folds < 100 || widens < 200 || multiBlock < 4000 {
		t.Fatalf("the streams split %d zones, merged %d, folded %d tails, widened %d times, checked %d multi-block directories",
			splits, merges, folds, widens, multiBlock)
	}
}

// Observe takes statistics in ascending ID order, at most one per zone
// (core.ZoneStats). A repeated ID and an ID below the last one planned are
// skipped, so a malformed slice cannot corrupt the splice: exactly the
// in-order splits land.
func TestObserveOrderContract(t *testing.T) {
	codes := seqCodes(1000, func(i int) int64 { return int64(i) })
	view := storage.Vec{W: codes}
	r := expr.Ranges{Lo: []int64{150, 450, 750}, Hi: []int64{160, 460, 760}}
	z, want := New(view, nil, smallCfg()), New(view, nil, smallCfg())
	res := z.Prune(r)
	_, _, stats := scanCandidates(res, r, view, nil)
	if len(stats) != 3 || stats[0].ID != 1 || stats[1].ID != 4 || stats[2].ID != 7 {
		t.Fatalf("precondition: statistics for zones 1, 4 and 7, got %+v", stats)
	}
	z.Observe(res, []core.ZoneStats{stats[0], stats[0], stats[2], stats[1]})
	want.Observe(res, []core.ZoneStats{stats[0], stats[2]})
	if want.splits == 0 || want.NumZones() == 10 {
		t.Fatal("precondition: the in-order statistics split nothing")
	}
	if !slices.Equal(z.zones, want.zones) || z.splits != want.splits {
		t.Fatalf("zones %+v (%d splits), want %+v (%d splits)", z.zones, z.splits, want.zones, want.splits)
	}
	if err := z.CheckInvariants(view, nil, true); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkObserveSorted times Observe alone, over queries 257–1,024 of a
// stream of 1% ranges on 4 Mi sorted rows, where a sorted column splits
// most. Every 768 timed queries start again from a fresh zonemap warmed by
// 256 queries, so ns/op does not depend on b.N; -benchtime 768x times the
// window once.
func BenchmarkObserveSorted(b *testing.B) {
	const n, warm, window = 4 << 20, 256, 768
	b.StopTimer()
	view := storage.Vec{W: seqCodes(n, func(i int) int64 { return int64(i) })}
	rng := rand.New(rand.NewSource(1))
	next := func() expr.Ranges {
		lo := rng.Int63n(n - n/100)
		return oneRange(lo, lo+n/100)
	}
	var z *Zonemap
	for i := 0; i < b.N; i++ {
		if i%window == 0 {
			z = New(view, nil, Config{})
			for q := 0; q < warm; q++ {
				executeVec(z, view, nil, next())
			}
		}
		r := next()
		res := z.Prune(r)
		_, _, stats := scanCandidates(res, r, view, nil)
		b.StartTimer()
		z.Observe(res, stats)
		b.StopTimer()
	}
}
