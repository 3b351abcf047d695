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
// splitting and merging switched off; the splits are then planned by a
// walk of every zone, not of the blocks the probe looked inside, spliced
// by spliceReference, swept by sweepReference, and every block is
// re-hulled.
func observeReference(z *Zonemap, res core.PruneResult) {
	cfg := z.cfg
	z.cfg.DisableSplit, z.cfg.DisableMerge = true, true
	z.Observe(res)
	z.cfg = cfg
	if !res.Enabled || !z.enabled || res.Ranges.Lo == nil {
		return
	}
	var plans []splitPlan
	c := res.Ranges.Clause()
	budget := z.tune.maxZones - len(z.zones)
	for i := range z.zones {
		zn := &z.zones[i]
		if budget <= 0 || zn.pruned(c.Test(zn.hull)) || zn.heat < z.tune.mergeHeat {
			continue
		}
		if subs := z.planSplit(zn, &c, budget); subs != nil {
			budget -= len(subs) - 1
			plans = append(plans, splitPlan{idx: i, subs: subs})
		}
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
// blocks, parts, counters, arbitration — and journaled the same records.
func sameDirectory(z, ref *Zonemap, recs, refRecs []obs.LedgerRecord) error {
	switch {
	case !slices.Equal(z.zones, ref.zones):
		return fmt.Errorf("%d zones %+v, reference %d %+v", len(z.zones), z.zones, len(ref.zones), ref.zones)
	case !slices.Equal(z.blocks, ref.blocks):
		return fmt.Errorf("%d blocks %+v, reference %d %+v", len(z.blocks), z.blocks, len(ref.blocks), ref.blocks)
	case !slices.Equal(z.parts, ref.parts):
		return fmt.Errorf("%d parts %+v, reference %d %+v", len(z.parts), z.parts, len(ref.parts), ref.parts)
	case !reflect.DeepEqual(recs, refRecs):
		return fmt.Errorf("journal %+v, reference %+v", recs, refRecs)
	}
	// The rest by value; func values are DeepEqual only when nil.
	a, b := *z, *ref
	a.zones, a.blocks, a.parts, a.journal = nil, nil, nil, nil
	b.zones, b.blocks, b.parts, b.journal = nil, nil, nil, nil
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
				res := z.Prune(r)
				splitsBefore, mergesBefore := z.splits, z.merges
				z.Observe(res)
				observeReference(ref, res)
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

// Observe learns from the predicate the probe tested, re-derived against
// the layout it finds, not from the windows the probe emitted. The engine
// scans between a query's probe and its Observe, so two queries may both
// probe before either observes: the second's result then describes a
// layout the first has already split. It must teach the zonemap exactly
// what the second query's own probe of the new layout would have, and
// leave it sound.
func TestObserveOrderContract(t *testing.T) {
	codes := seqCodes(1000, func(i int) int64 { return int64(i) })
	view := storage.Vec{W: codes}
	first := expr.Ranges{Lo: []int64{150, 450}, Hi: []int64{160, 460}}
	second := oneRange(155, 575) // from inside a zone first splits to one it leaves whole
	z, want := New(view, nil, smallCfg()), New(view, nil, smallCfg())
	stale := z.Prune(second)
	z.Observe(z.Prune(first))
	z.Observe(stale)
	want.Observe(want.Prune(first))
	splits := want.splits
	want.Observe(want.Prune(second))
	if splits == 0 || want.splits == splits {
		t.Fatalf("precondition: each query should split (%d, then %d splits)", splits, want.splits)
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
		res := z.Prune(next())
		b.StartTimer()
		z.Observe(res)
		b.StopTimer()
	}
}
