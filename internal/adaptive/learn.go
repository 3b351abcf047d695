package adaptive

import (
	"fmt"
	"slices"

	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/zonemap"
)

// Observe implements core.Skipper, and is the one writer of what the
// zonemap learns: per-zone heat and the splits and merges it plans, the
// shadow-probe countdown, arbitration, then one splice of the plans. An
// IS NULL probe (nil res.Ranges) feeds arbitration alone. It re-derives
// every verdict from res.Ranges against the current layout, so a result
// probed on an older layout teaches it nothing false.
func (z *Zonemap) Observe(res core.PruneResult) {
	z.queries++
	var edits []edit
	if res.Ranges.Lo != nil {
		if res.Enabled {
			c := res.Ranges.Clause()
			edits = z.learnProbe(&c)
		}
		if !z.enabled {
			z.disabledQueries++
			if z.disabledQueries%z.tune.horizon == 0 {
				z.shadowProbe(res.Ranges)
			}
		}
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.InvariantFlip) {
		// Corrupt and return: the broken tiling must survive untouched to
		// the next probe, which is where detection is supposed to happen.
		z.corruptLayout()
		return
	}
	if !res.Enabled {
		return
	}

	// ---- Arbitration: did this query's probing pay for itself? ----
	z.netBenefit = z.stepBenefit(res.RowsSkipped, res.ZonesProbed)
	if z.tune.off&Arbitration == 0 && z.enabled && z.queries > z.tune.horizon && z.netBenefit < 0 {
		z.enabled = false
		z.disabledQueries = 0
		z.disables++
		z.record(obs.LedgerRecord{
			Kind: obs.EventDisable, Cause: "net-benefit",
			ZonesBefore: len(z.Zones), ZonesAfter: len(z.Zones),
			RowLo: 0, RowHi: z.Indexed(),
		})
	}
	if z.enabled && len(edits) > 0 { // structure frozen while disabled
		z.Refold(z.splice(edits))
	}
}

// planSplit cuts zone i, which the probe with clause c had to scan, where
// the verdict changes across its parts, and returns the sub-zones, or nil.
// A run of parts grows while the next part has its verdict and compatible
// bounds (the merge test), and a pruned run only while its union stays
// pruned: a value band's parts join into one zone on the band's edges, and
// two bands stay apart. Each sub-zone names its first part. A split needs
// a pruned run: this query's evidence that finer metadata prunes here.
// There are always two runs or more: one run would be the zone, the union
// of its parts, pruned, and a pruned zone is not scanned.
func (z *Zonemap) planSplit(i int, c *expr.Clause) []zone {
	// Most scanned zones have no pruned part: find that out, and the
	// zone's parts, in one cheap pass before building any run.
	zn := &z.Zones[i]
	first := int(zn.First)
	end, anyPruned := first, false
	for ; end < len(z.Parts) && z.Parts[end].Hi <= zn.Hi; end++ {
		anyPruned = anyPruned || pruned(&z.Parts[end], c.Test(z.Parts[end].Sum))
	}
	if first >= len(z.Parts) || z.Parts[first].Lo != zn.Lo || end == first || z.Parts[end-1].Hi != zn.Hi {
		panic(fmt.Errorf("%w: zone [%d,%d) is not a run of whole parts", zonemap.ErrCorrupt, zn.Lo, zn.Hi))
	}
	if !anyPruned {
		return nil
	}
	runs, lastPruned := make([]zone, 0, end-first), false
	for k := first; k < end; k++ {
		part := z.Parts[k]
		pr := pruned(&part, c.Test(part.Sum))
		if n := len(runs) - 1; n >= 0 && pr == lastPruned && boundsCompatible(&runs[n], &part) {
			if u := join(runs[n], part); !pr || pruned(&u, c.Test(u.Sum)) {
				runs[n] = u
				continue
			}
		}
		part.First = uint32(k)
		runs = append(runs, part)
		lastPruned = pr
	}
	return runs
}

// edit is one planned change to the directory: the n zones from idx on
// give way to zones, each naming its first part. A split replaces one zone
// by its sub-zones at the initial heat; a merge replaces a cold run by its
// union, which keeps the run's warmer heat. Either way l is every new
// zone's learner.
type edit struct {
	idx, n int
	zones  []zone
	l      learner
}

// splice applies the edits, in zone order, to the zones and their
// learners in place, journals one record per edit, and returns the first
// zone that moved. A forward pass closes the room each shrinking edit (a
// merge) frees; a backward pass then opens the room each growing one (a
// split) needs. Each pass moves an untouched zone at most once.
func (z *Zonemap) splice(edits []edit) int {
	first := edits[0].idx
	for _, e := range edits {
		// One ledger record per edit: the replaced zones' window and hull
		// before, the new zones' hull after (a split's parts' hulls, never
		// wider than its parent's; a merge's union, the same hull).
		old := z.Zones[e.idx : e.idx+e.n]
		rec := obs.LedgerRecord{
			Kind: obs.EventSplit, Cause: "split-gain", ZonesBefore: e.n, ZonesAfter: len(e.zones),
			RowLo: int(old[0].Lo), RowHi: int(old[e.n-1].Hi),
		}
		rec.MinBefore, rec.MaxBefore = bounds(hullOf(old))
		rec.MinAfter, rec.MaxAfter = bounds(hullOf(e.zones))
		if len(e.zones) < e.n {
			rec.Kind, rec.Cause = obs.EventMerge, "merge-cold"
		}
		z.splits += max(len(e.zones)-e.n, 0)
		z.merges += max(e.n-len(e.zones), 0)
		z.record(rec)
	}
	// Forward: w writes, r reads; a growing edit moves whole, index and all.
	w, r, grow, added := first, first, edits[:0], 0
	for _, e := range edits {
		w, r = z.move(w, r, e.idx), e.idx+e.n
		if len(e.zones) > e.n {
			e.idx, w = w, z.move(w, e.idx, r)
			grow, added = append(grow, e), added+len(e.zones)-e.n
		} else {
			w = z.place(w, &e)
		}
	}
	end := z.move(w, r, len(z.Zones)) // the untouched run after grow[k] ends here
	z.Zones = slices.Grow(z.Zones[:end], added)[:end+added]
	z.learn = slices.Grow(z.learn[:end], added)[:end+added]
	for k := len(grow) - 1; k >= 0; k-- {
		e := &grow[k]
		z.move(e.idx+e.n+added, e.idx+e.n, end)
		added -= len(e.zones) - e.n
		z.place(e.idx+added, e)
		end = e.idx
	}
	return first
}

// move copies zones [lo, hi) and their learners to dst, and returns where
// they end there.
func (z *Zonemap) move(dst, lo, hi int) int {
	if dst != lo {
		copy(z.Zones[dst:], z.Zones[lo:hi])
		copy(z.learn[dst:], z.learn[lo:hi])
	}
	return dst + hi - lo
}

// place writes e's zones and their learners at at, and returns where they
// end.
func (z *Zonemap) place(at int, e *edit) int {
	copy(z.Zones[at:], e.zones)
	for j := range e.zones {
		z.learn[at+j] = e.l
	}
	return at + len(e.zones)
}

// boundsCompatible reports whether merging a and b loses little pruning
// power: the union's span is at most 1.5x the wider one. Without it a
// narrow zone scanned because its rows match would merge with a
// differently-valued neighbour, then split again: churn.
func boundsCompatible(a, b *zone) bool {
	w := max(a.Sum.Width(), b.Sum.Width())
	return a.Sum.Union(b.Sum).Width() <= w+w/2
}

// join returns the sound union of two adjacent zones, which starts at a's
// first part: the grid's own join goes through the Kind, this one inlines
// into the split and merge loops.
func join(a, b zone) zone {
	return zone{Lo: a.Lo, Hi: b.Hi, Sum: a.Sum.Union(b.Sum), NonNull: a.NonNull + b.NonNull, First: a.First}
}

// learnProbe applies a probe's verdicts, re-derived over the blocks Prune
// looked inside, and plans the edits there, in zone order: a pruned zone
// heats up; a scanned one cools and is planned for a split. A zone colder
// than MergeHeat is never split: a run of them, each compatible with the
// run so far, is planned for a merge. So upkeep visits only the blocks the
// probe entered.
func (z *Zonemap) learnProbe(c *expr.Clause) (edits []edit) {
	var run zone   // the cold run the walk grows: n zones from at,
	var rl learner // their union and the learner it keeps
	at, n := 0, 0
	merge := func() {
		if n > 1 {
			edits = append(edits, edit{idx: at, n: n, zones: []zone{run}, l: rl})
		}
		n = 0
	}
	for bi := range z.Blocks {
		if c.Test(z.Blocks[bi]) == expr.MatchNone {
			continue
		}
		lo, hi := zonemap.Members(bi, len(z.Zones))
		for i := lo; i < hi; i++ {
			zn, l := &z.Zones[i], &z.learn[i]
			scanned := !pruned(zn, c.Test(zn.Sum))
			if scanned {
				l.heat -= HeatAlpha * l.heat
			} else {
				l.heat += HeatAlpha * (1 - l.heat)
			}
			switch {
			case l.heat >= z.tune.mergeHeat:
				merge()
				if scanned && z.tune.off&Split == 0 {
					if subs := z.planSplit(i, c); subs != nil {
						edits = append(edits, edit{idx: i, n: 1, zones: subs, l: learner{heat: 0.5}})
					}
				}
			case z.tune.off&Merge != 0: // a cold zone stays as it is
			case n > 0 && at+n == i && boundsCompatible(&run, zn):
				run, rl.heat, n = join(run, *zn), max(rl.heat, l.heat), n+1
			default:
				merge()
				run, rl, at, n = *zn, *l, i, 1
			}
		}
	}
	merge()
	return edits
}

// shadowBenefit is the arbitration EWMA after a shadow probe with r, which
// measures what skipping would have saved without any scan work.
func (z *Zonemap) shadowBenefit(r expr.Ranges) float64 {
	c := r.Clause()
	skipped := 0
	for i := range z.Zones {
		if zn := &z.Zones[i]; c.Test(zn.Sum) == expr.MatchNone {
			skipped += int(zn.Hi - zn.Lo)
		}
	}
	return z.stepBenefit(skipped, len(z.Zones))
}

// stepBenefit is the arbitration EWMA after a query skipped rows for
// probes: it moves by Net over the horizon.
func (z *Zonemap) stepBenefit(rows, probes int) float64 {
	alpha := 2.0 / (float64(z.tune.horizon) + 1)
	return z.netBenefit + alpha*(Net(int64(rows), int64(probes))-z.netBenefit)
}

// shadowProbe, run on every Horizon-th query while disabled, steps
// the arbitration EWMA by the shadow probe's benefit and re-enables the
// structure when the cost model turns positive (data or workload drift).
func (z *Zonemap) shadowProbe(r expr.Ranges) {
	z.netBenefit = z.shadowBenefit(r)
	if z.netBenefit > 0 {
		z.enabled = true
		z.enables++
		z.record(obs.LedgerRecord{
			Kind: obs.EventEnable, Cause: "shadow-probe",
			ZonesBefore: len(z.Zones), ZonesAfter: len(z.Zones),
			RowLo: 0, RowHi: z.Indexed(),
		})
	}
}
