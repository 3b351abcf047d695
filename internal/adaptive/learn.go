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
// zonemap learns: per-zone heat and the splits it plans, the shadow-probe
// countdown, arbitration, then the splits and the merge sweep. An IS NULL
// probe (nil res.Ranges) feeds arbitration alone. It re-derives every
// verdict from res.Ranges against the current layout, so a result probed
// on an older layout teaches it nothing false.
func (z *Zonemap) Observe(res core.PruneResult) {
	z.queries++
	var plans []splitPlan
	if res.Ranges.Lo != nil {
		if res.Enabled {
			c := res.Ranges.Clause()
			plans = z.learnProbe(&c)
		}
		if !z.enabled {
			z.disabledQueries++
			if z.disabledQueries%z.tune.reprobeEvery == 0 {
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
	if !z.cfg.DisableArbitration && z.enabled && z.queries > z.tune.window && z.netBenefit < 0 {
		z.enabled = false
		z.disabledQueries = 0
		z.disables++
		z.maintEvents++
		z.record(obs.LedgerRecord{
			Kind: obs.EventDisable, Cause: "net-benefit",
			ZonesBefore: len(z.Zones), ZonesAfter: len(z.Zones),
			RowLo: 0, RowHi: z.Indexed(),
		})
	}
	if !z.enabled {
		return // structure frozen while disabled
	}

	moved := len(z.Zones) // the first zone a split or merge moved, if any
	if len(plans) > 0 {
		moved = z.applySplits(plans)
		z.maintEvents++
	}
	if !z.cfg.DisableMerge && z.queries%z.tune.mergeSweepEvery == 0 {
		if first := z.mergeSweep(); first >= 0 {
			moved = min(moved, first)
			z.maintEvents++
		}
	}
	if moved < len(z.Zones) {
		z.Refold(moved)
	}
}

// planSplit cuts zone i, which the probe with clause c had to scan, where
// the verdict changes across its parts, and returns the sub-zones, or nil.
// A run of parts grows while the next part has its verdict and compatible
// bounds (the merge test), and a pruned run only while its union stays
// pruned: a value band's parts join into one zone on the band's edges, and
// two bands stay apart. A split needs a pruned run — this query's evidence
// that finer metadata prunes here — and at most budget zones more.
func (z *Zonemap) planSplit(i int, c *expr.Clause, budget int) []zone {
	// Most scanned zones have no pruned part: find that out, and the
	// zone's parts, in one cheap pass before building any run.
	zn, first := &z.Zones[i], int(z.learn[i].first)
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
	for _, part := range z.Parts[first:end] {
		pr := pruned(&part, c.Test(part.Sum))
		if n := len(runs) - 1; n >= 0 && pr == lastPruned && boundsCompatible(&runs[n], &part) {
			if u := join(runs[n], part); !pr || pruned(&u, c.Test(u.Sum)) {
				runs[n] = u
				continue
			}
		}
		runs = append(runs, part)
		lastPruned = pr
	}
	if len(runs) < 2 || len(runs)-1 > budget {
		return nil
	}
	return runs
}

// applySplits splices the plans, in zone order, into the zones and their
// learners in place and returns the first zone that moved: a forward pass
// journals them, one backward pass moves each untouched run once and
// copies the sub-zones in, at the initial heat and the parent's widened.
func (z *Zonemap) applySplits(plans []splitPlan) int {
	added := 0
	for _, p := range plans {
		// One ledger record per refined zone: the parent's window and
		// hull before, the union of the children's hulls after — their
		// parts' hulls, never wider than the parent's.
		parent := &z.Zones[p.idx]
		minBefore, maxBefore := bounds(parent.Sum)
		minAfter, maxAfter := bounds(hullOf(p.subs))
		z.record(obs.LedgerRecord{
			Kind: obs.EventSplit, Cause: "split-gain",
			ZonesBefore: 1, ZonesAfter: len(p.subs),
			RowLo: parent.Lo, RowHi: parent.Hi,
			MinBefore: minBefore, MaxBefore: maxBefore,
			MinAfter: minAfter, MaxAfter: maxAfter,
		})
		added += len(p.subs) - 1
		z.maintZones += int64(len(p.subs))
	}
	z.splits += added
	end := len(z.Zones) // the untouched run after plan k ends here
	z.Zones = slices.Grow(z.Zones, added)[:end+added]
	z.learn = slices.Grow(z.learn, added)[:end+added]
	for k := len(plans) - 1; k >= 0; k-- {
		p := plans[k]
		copy(z.Zones[p.idx+1+added:], z.Zones[p.idx+1:end])
		copy(z.learn[p.idx+1+added:], z.learn[p.idx+1:end])
		added -= len(p.subs) - 1
		l := learner{heat: 0.5, first: z.learn[p.idx].first, widened: z.learn[p.idx].widened}
		copy(z.Zones[p.idx+added:], p.subs)
		for j, sub := range p.subs {
			z.learn[p.idx+added+j] = l
			for z.Parts[l.first].Hi < sub.Hi {
				l.first++
			}
			l.first++
		}
		end = p.idx
	}
	return plans[0].idx
}

// splitPlan is one planned refinement: a zone's index and its sub-zones.
type splitPlan struct {
	idx  int
	subs []zone
}

// mergeSweep coalesces runs of adjacent cold zones (heat below MergeHeat)
// with compatible bounds, shedding a probe and a zone per merge, and
// returns the first zone it changed, or -1 (having written nothing). A
// merged zone keeps the warmer heat, so a recently useful neighbour is not
// dragged straight back into another merge.
func (z *Zonemap) mergeSweep() int {
	cold := func(i int) bool { return z.learn[i].heat < z.tune.mergeHeat }
	first := 0
	for first+1 < len(z.Zones) && !(cold(first) && cold(first+1) && boundsCompatible(&z.Zones[first], &z.Zones[first+1])) {
		first++
	}
	if first+1 >= len(z.Zones) {
		return -1
	}
	before, w := len(z.Zones), first
	var merged []zone // the coalesced zones, for the sweep's ledger record
	for i := first; i < before; w++ {
		cur, l := z.Zones[i], z.learn[i]
		j := i + 1
		for ; j < before && cold(i) && cold(j) && boundsCompatible(&cur, &z.Zones[j]); j++ {
			cur = join(cur, z.Zones[j])
			l.heat, l.widened = max(l.heat, z.learn[j].heat), l.widened || z.learn[j].widened
		}
		if j-i > 1 {
			merged = append(merged, cur)
		}
		z.merges += j - i - 1
		z.Zones[w], z.learn[w] = cur, l
		i = j
	}
	z.Zones, z.learn = z.Zones[:w], z.learn[:w]
	// One summary ledger record per sweep covering every coalesced run:
	// the affected row span and the union hull of the merged zones (which
	// merging leaves unchanged).
	z.maintZones += int64(before - w)
	hullMin, hullMax := bounds(hullOf(merged))
	z.record(obs.LedgerRecord{
		Kind: obs.EventMerge, Cause: "merge-cold",
		ZonesBefore: before, ZonesAfter: w,
		RowLo: merged[0].Lo, RowHi: merged[len(merged)-1].Hi,
		MinBefore: hullMin, MaxBefore: hullMax,
		MinAfter: hullMin, MaxAfter: hullMax,
	})
	return first
}

// boundsCompatible reports whether merging a and b loses little pruning
// power: the union's span is at most 1.5x the wider one. Without it a
// narrow zone scanned because its rows match would merge with a
// differently-valued neighbour, then split again: churn.
func boundsCompatible(a, b *zone) bool {
	w := max(a.Sum.Width(), b.Sum.Width())
	return a.Sum.Union(b.Sum).Width() <= w+w/2
}

// join returns the sound union of two adjacent zones: the grid's own join
// goes through the Kind, this one inlines into the split and merge loops.
func join(a, b zone) zone {
	return zone{Lo: a.Lo, Hi: b.Hi, Sum: a.Sum.Union(b.Sum), NonNull: a.NonNull + b.NonNull}
}

// learnProbe applies a probe's verdicts, re-derived over the blocks Prune
// looked inside: a pruned zone heats up; a scanned one cools and is
// planned for a split within the MaxZones budget — unless splits are off
// or it is colder than MergeHeat, which the merge sweep is folding away.
// It returns the plans in zone order.
func (z *Zonemap) learnProbe(c *expr.Clause) (plans []splitPlan) {
	budget := z.tune.maxZones - len(z.Zones)
	for bi := range z.Blocks {
		if c.Test(z.Blocks[bi]) == expr.MatchNone {
			continue
		}
		lo, hi := zonemap.Members(bi, len(z.Zones))
		for i := lo; i < hi; i++ {
			l := &z.learn[i]
			if pruned(&z.Zones[i], c.Test(z.Zones[i].Sum)) {
				l.heat += z.tune.heatAlpha * (1 - l.heat)
				continue
			}
			l.heat -= z.tune.heatAlpha * l.heat
			if z.cfg.DisableSplit || budget <= 0 || l.heat < z.tune.mergeHeat {
				continue
			}
			if subs := z.planSplit(i, c, budget); subs != nil {
				budget -= len(subs) - 1
				plans = append(plans, splitPlan{idx: i, subs: subs})
			}
		}
	}
	return plans
}

// shadowBenefit is the arbitration EWMA after a shadow probe with r, which
// measures what skipping would have saved without any scan work.
func (z *Zonemap) shadowBenefit(r expr.Ranges) float64 {
	c := r.Clause()
	skipped := 0
	for i := range z.Zones {
		if zn := &z.Zones[i]; c.Test(zn.Sum) == expr.MatchNone {
			skipped += zn.Hi - zn.Lo
		}
	}
	return z.stepBenefit(skipped, len(z.Zones))
}

// stepBenefit is the arbitration EWMA after a query skipped rows for probes.
func (z *Zonemap) stepBenefit(rows, probes int) float64 {
	net := float64(rows)*z.tune.rowCost - float64(probes)*z.tune.probeCost
	alpha := 2.0 / (float64(z.tune.window) + 1)
	return z.netBenefit + alpha*(net-z.netBenefit)
}

// shadowProbe, run on every ReprobeEvery-th query while disabled, steps
// the arbitration EWMA by the shadow probe's benefit and re-enables the
// structure when the cost model turns positive (data or workload drift).
func (z *Zonemap) shadowProbe(r expr.Ranges) {
	z.netBenefit = z.shadowBenefit(r)
	if z.netBenefit > 0 {
		z.enabled = true
		z.enables++
		z.maintEvents++
		z.record(obs.LedgerRecord{
			Kind: obs.EventEnable, Cause: "shadow-probe",
			ZonesBefore: len(z.Zones), ZonesAfter: len(z.Zones),
			RowLo: 0, RowHi: z.Indexed(),
		})
	}
}
