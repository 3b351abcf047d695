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

// spliceReference applies edits the way the zone directory was once
// rebuilt: every zone is copied into a fresh slice, the edited runs looked
// up in a map and replaced by their new zones, each naming the first part
// a search of the parts for its first row finds.
func spliceReference(z *Zonemap, edits []edit) {
	byIdx := make(map[int]edit, len(edits))
	for _, e := range edits {
		byIdx[e.idx] = e
	}
	var out []zone
	var learn []learner
	for i := 0; i < len(z.Zones); i++ {
		e, ok := byIdx[i]
		if !ok {
			out, learn = append(out, z.Zones[i]), append(learn, z.learn[i])
			continue
		}
		old := z.Zones[i : i+e.n]
		minBefore, maxBefore := bounds(hullOf(old))
		minAfter, maxAfter := bounds(hullOf(e.zones))
		kind, cause := obs.EventSplit, "split-gain"
		if len(e.zones) < e.n {
			kind, cause = obs.EventMerge, "merge-cold"
			z.merges += e.n - len(e.zones)
		} else {
			z.splits += len(e.zones) - e.n
		}
		z.record(obs.LedgerRecord{
			Kind: kind, Cause: cause,
			ZonesBefore: e.n, ZonesAfter: len(e.zones),
			RowLo: int(old[0].Lo), RowHi: int(old[e.n-1].Hi),
			MinBefore: minBefore, MaxBefore: maxBefore,
			MinAfter: minAfter, MaxAfter: maxAfter,
		})
		for _, s := range e.zones {
			s.First = uint32(slices.IndexFunc(z.Parts, func(p zone) bool { return p.Lo == s.Lo }))
			out, learn = append(out, s), append(learn, e.l)
		}
		i += e.n - 1
	}
	z.Zones, z.learn = out, learn
}

// blocksReference recomputes the whole coarse level from the zone slice.
func blocksReference(z *Zonemap) {
	z.Blocks = make([]expr.Hull, (len(z.Zones)+zonemap.BlockZones-1)/zonemap.BlockZones)
	for bi := range z.Blocks {
		lo, hi := zonemap.Members(bi, len(z.Zones))
		z.Blocks[bi] = hullOf(z.Zones[lo:hi])
	}
}

// observeReference is Observe with the directory edited the old way: the
// probe's verdicts and arbitration run through Observe itself, with
// splitting and merging switched off; the edits are then planned by a walk
// of every zone in a block whose hull, computed afresh, the probe does not
// rule out — a split of each hot zone it scans, a merge of each run of
// cold zones grown while the next is compatible with the run so far —
// spliced by spliceReference, and every block is re-hulled.
func observeReference(z *Zonemap, res core.PruneResult) {
	off := z.tune.off
	z.Ablate(off | Split | Merge)
	z.Observe(res)
	z.Ablate(off)
	if !res.Enabled || !z.enabled || res.Ranges.Lo == nil {
		return
	}
	c := res.Ranges.Clause()
	entered := func(i int) bool {
		lo, hi := zonemap.Members(i/zonemap.BlockZones, len(z.Zones))
		return c.Test(hullOf(z.Zones[lo:hi])) != expr.MatchNone
	}
	cold := func(i int) bool { return z.learn[i].heat < z.tune.mergeHeat }
	var edits []edit
	for i := 0; i < len(z.Zones); i++ {
		switch {
		case !entered(i):
		case cold(i) && off&Merge == 0:
			run, l, j := z.Zones[i], z.learn[i], i+1
			for ; j < len(z.Zones) && entered(j) && cold(j) && boundsCompatible(&run, &z.Zones[j]); j++ {
				run = zone{Lo: run.Lo, Hi: z.Zones[j].Hi, Sum: run.Sum.Union(z.Zones[j].Sum), NonNull: run.NonNull + z.Zones[j].NonNull}
				l = learner{heat: max(l.heat, z.learn[j].heat)}
			}
			if j-i > 1 {
				edits = append(edits, edit{idx: i, n: j - i, zones: []zone{run}, l: l})
			}
			i = j - 1
		case cold(i) || off&Split != 0 || pruned(&z.Zones[i], c.Test(z.Zones[i].Sum)):
		default:
			if subs := z.planSplit(i, &c); subs != nil {
				edits = append(edits, edit{idx: i, n: 1, zones: subs, l: learner{heat: 0.5}})
			}
		}
	}
	if len(edits) > 0 {
		spliceReference(z, edits)
		blocksReference(z)
	}
}

// sameDirectory fails unless z and ref are in the same state — zones and
// their learners, blocks, parts, tail, counters, arbitration — and
// journaled the same records.
func sameDirectory(z, ref *Zonemap, recs, refRecs []obs.LedgerRecord) error {
	switch {
	case !slices.Equal(z.Zones, ref.Zones):
		return fmt.Errorf("%d zones %+v, reference %d %+v", len(z.Zones), z.Zones, len(ref.Zones), ref.Zones)
	case !slices.Equal(z.learn, ref.learn):
		return fmt.Errorf("learners %+v, reference %+v", z.learn, ref.learn)
	case !slices.Equal(z.Blocks, ref.Blocks):
		return fmt.Errorf("%d blocks %+v, reference %d %+v", len(z.Blocks), z.Blocks, len(ref.Blocks), ref.Blocks)
	case !slices.Equal(z.Parts, ref.Parts):
		return fmt.Errorf("%d parts %+v, reference %d %+v", len(z.Parts), z.Parts, len(ref.Parts), ref.Parts)
	case z.Rows() != ref.Rows() || z.Indexed() != ref.Indexed():
		return fmt.Errorf("rows %d indexed %d, reference %d %d", z.Rows(), z.Indexed(), ref.Rows(), ref.Indexed())
	case !reflect.DeepEqual(recs, refRecs):
		return fmt.Errorf("journal %+v, reference %+v", recs, refRecs)
	}
	// The rest by value; func values are DeepEqual only when nil, and the
	// grid names its zonemap as its layout.
	a, b := *z, *ref
	a.Grid, a.learn, a.journal = zonemap.Grid[expr.Hull, expr.Clause]{}, nil, nil
	b.Grid, b.learn, b.journal = zonemap.Grid[expr.Hull, expr.Clause]{}, nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("state %+v, reference %+v", a, b)
	}
	return nil
}

// The zone directory edited in place — a query's splits and merges
// planned in one walk of the blocks it entered and spliced by a forward
// and a backward pass, tail folds appended, and the coarse level re-hulled
// from the block of the first zone that moved — is the directory the old
// whole-slice rebuild produced. Seeded streams of range queries, appends
// that fold the tail and coolings of a random run of zones (at the
// directory's first or last zone too) run against both; after every
// Observe and fold the zonemaps must be in the same state and have
// journaled the same records. The streams must merge the directory's
// first and last zones, and edit with one query both splits and merges.
func TestDirectoryEditsMatchReference(t *testing.T) {
	shapes := []string{"banded", "sorted", "semi-sorted", "uniform"}
	var splits, merges, folds, multiBlock, firstMerged, lastMerged, mixed int
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[seed%int64(len(shapes))]
		floor := 4 + rng.Intn(13)
		zoneRows := floor * (4 + rng.Intn(13))
		n := 6000 + rng.Intn(6000)
		codes, nulls, domain := propertyColumn(rng, shape, n, floor)
		loaded := n / 2
		z, ref := New(storage.Vec{W: codes[:loaded]}, nulls, zoneRows, floor), New(storage.Vec{W: codes[:loaded]}, nulls, zoneRows, floor)
		var recs, refRecs []obs.LedgerRecord
		z.SetJournal(func(r obs.LedgerRecord) { recs = append(recs, r) })
		ref.SetJournal(func(r obs.LedgerRecord) { refRecs = append(refRecs, r) })
		tune := defaultTuning
		tune.horizon = 1 + rng.Intn(32)
		tune.mergeHeat = []float64{MergeHeat, 0.2, 0.4}[rng.Intn(3)]
		z.tune, ref.tune = tune, tune
		check := func(what string, arg any) {
			t.Helper()
			if err := sameDirectory(z, ref, recs, refRecs); err != nil {
				t.Fatalf("seed %d, %s, after %s %v: %v", seed, shape, what, arg, err)
			}
			recs, refRecs = recs[:0], refRecs[:0]
			if len(z.Blocks) > 1 {
				multiBlock++
			}
		}
		for q := 0; q < 300; q++ {
			switch k := rng.Intn(20); {
			case k == 0 && loaded < n: // append, and fold once the tail is long enough
				loaded = min(n, loaded+1+rng.Intn(zoneRows))
				view, tailLo := storage.Vec{W: codes[:loaded]}, ref.Indexed()
				z.Extend(view, nulls)
				if ref.Extend(view, nulls); ref.Indexed() != tailLo {
					blocksReference(ref)
					folds++
				}
				check("append to rows", loaded)
			case k == 1 && loaded > z.Indexed(): // fold whatever the tail holds
				view := storage.Vec{W: codes[:loaded]}
				z.FoldTail(view, nulls)
				ref.FoldTail(view, nulls)
				blocksReference(ref)
				folds++
				check("fold at row", loaded)
			case k == 2 && len(z.Zones) > 1: // cool a run of zones, which the next query to enter it merges
				lo := []int{0, len(z.Zones) - 2, rng.Intn(len(z.Zones) - 1)}[rng.Intn(3)]
				for i := lo; i < min(len(z.Zones), lo+2+rng.Intn(3)); i++ {
					z.learn[i].heat, ref.learn[i].heat = 0.01, 0.01
				}
			default:
				r := propertyRanges(rng, domain)
				res := z.Prune(r)
				splitsBefore, mergesBefore := z.splits, z.merges
				z.Observe(res)
				observeReference(ref, res)
				splits += z.splits - splitsBefore
				merges += z.merges - mergesBefore
				if z.splits > splitsBefore && z.merges > mergesBefore {
					mixed++
				}
				for _, rec := range recs {
					if rec.Kind == obs.EventMerge && rec.RowLo == 0 {
						firstMerged++
					}
					if rec.Kind == obs.EventMerge && rec.RowHi == z.Indexed() {
						lastMerged++
					}
				}
				check("query", r)
			}
		}
		if err := z.CheckInvariants(storage.Vec{W: codes[:loaded]}, nulls); err != nil {
			t.Fatalf("seed %d, %s: %v", seed, shape, err)
		}
	}
	t.Logf("%d splits, %d merges (%d at the first zone, %d at the last), %d queries both, %d folds, %d multi-block checks",
		splits, merges, firstMerged, lastMerged, mixed, folds, multiBlock)
	if splits < 4000 || merges < 200 || folds < 100 || multiBlock < 4000 || firstMerged == 0 || lastMerged == 0 || mixed == 0 {
		t.Fatalf("the streams split %d zones, merged %d (%d at the first zone, %d at the last), %d queries both; folded %d tails, checked %d multi-block directories",
			splits, merges, firstMerged, lastMerged, mixed, folds, multiBlock)
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
	z, want := New(view, nil, smallZone, smallParts), New(view, nil, smallZone, smallParts)
	stale := z.Prune(second)
	z.Observe(z.Prune(first))
	z.Observe(stale)
	want.Observe(want.Prune(first))
	splits := want.splits
	want.Observe(want.Prune(second))
	if splits == 0 || want.splits == splits {
		t.Fatalf("precondition: each query should split (%d, then %d splits)", splits, want.splits)
	}
	if !slices.Equal(z.Zones, want.Zones) || !slices.Equal(z.learn, want.learn) || z.splits != want.splits {
		t.Fatalf("zones %+v (%d splits), want %+v (%d splits)", z.Zones, z.splits, want.Zones, want.splits)
	}
	if err := z.CheckInvariants(view, nil); err != nil {
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
			z = New(view, nil, 65536, DefaultMinZoneRows)
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
