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
// zonemap learns: the probe's per-zone verdicts (heat) and the splits they
// plan, a disabled zonemap's shadow-probe countdown, then arbitration, and
// the planned splits and the merge sweep. An IS NULL probe (nil
// res.Ranges) feeds arbitration alone. Everything it learns it re-derives
// from res.Ranges against the current layout, so a result from a probe of
// an older layout teaches it nothing false.
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
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: 0, RowHi: z.tailLo,
		})
	}
	if !z.enabled {
		return // structure frozen while disabled
	}

	moved := len(z.zones) // the first zone a split or merge moved, if any
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
	if moved < len(z.zones) {
		z.rebuildBlocks(moved)
	}
}

// planSplit cuts zone zn, which the probe with clause c had to scan, where
// the verdict changes across its parts, and returns the sub-zones, or nil
// when the parts expose no boundary worth a split. Walking the parts in row
// order, a run grows while the next part has its verdict and bounds
// compatible with it (boundsCompatible, the merge test), and a pruned run
// only while its union is still pruned: a value band's parts join into one
// zone that ends on the band's edges, and two bands' parts stay apart even
// when both are pruned, since their union would straddle a later query. A
// split needs a pruned run — evidence, from this one query, that finer
// metadata has pruning power here — and at most budget zones more than zn.
func (z *Zonemap) planSplit(zn *zone, c *expr.Clause, budget int) []zone {
	// Most scanned zones have no pruned part: find that out, and the
	// zone's parts, in one cheap pass before building any run.
	first, end, anyPruned := int(zn.first), 0, false
	for end = first; end < len(z.parts) && z.parts[end].Hi <= zn.hi; end++ {
		part := z.partZone(end)
		anyPruned = anyPruned || part.pruned(c.Test(part.hull))
	}
	if first >= len(z.parts) || z.parts[first].Lo != zn.lo || end == first || z.parts[end-1].Hi != zn.hi {
		panic(fmt.Errorf("%w: zone [%d,%d) is not a run of whole parts", ErrCorrupt, zn.lo, zn.hi))
	}
	if !anyPruned {
		return nil
	}
	runs, lastPruned := make([]zone, 0, end-first), false
	for k := first; k < end; k++ {
		part := z.partZone(k)
		part.widened = zn.widened
		pruned := part.pruned(c.Test(part.hull))
		if n := len(runs) - 1; n >= 0 && pruned == lastPruned && boundsCompatible(&runs[n], &part) {
			if u := mergeZones(runs[n], part); !pruned || u.pruned(c.Test(u.hull)) {
				runs[n] = u
				continue
			}
		}
		runs = append(runs, part)
		lastPruned = pruned
	}
	if len(runs) < 2 || len(runs)-1 > budget {
		return nil
	}
	return runs
}

// applySplits splices the planned splits, in ascending zone order, into the
// zone slice in place and returns the first zone that moved. A forward pass
// journals them; one backward pass moves each untouched run once and copies
// the sub-zones in. The zones ahead of the first plan stay where they are.
func (z *Zonemap) applySplits(plans []splitPlan) int {
	added := 0
	for _, p := range plans {
		// One ledger record per refined zone: the parent's window and
		// hull before, the union of the children's hulls after — their
		// parts' hulls, never wider than the parent's.
		parent := &z.zones[p.idx]
		minBefore, maxBefore := bounds(parent.hull)
		minAfter, maxAfter := bounds(hullOf(p.subs))
		z.record(obs.LedgerRecord{
			Kind: obs.EventSplit, Cause: "split-gain",
			ZonesBefore: 1, ZonesAfter: len(p.subs),
			RowLo: parent.lo, RowHi: parent.hi,
			MinBefore: minBefore, MaxBefore: maxBefore,
			MinAfter: minAfter, MaxAfter: maxAfter,
		})
		added += len(p.subs) - 1
		z.maintZones += int64(len(p.subs))
	}
	z.splits += added
	end := len(z.zones) // the untouched run after plan k ends here
	z.zones = slices.Grow(z.zones, added)[:end+added]
	for k := len(plans) - 1; k >= 0; k-- {
		p := plans[k]
		copy(z.zones[p.idx+1+added:], z.zones[p.idx+1:end])
		added -= len(p.subs) - 1
		copy(z.zones[p.idx+added:], p.subs)
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
// with compatible bounds, and returns the index of the first zone it
// changed, or -1 when none merged. Merging a run of k zones removes
// k−1 probes per future query and (k−1) zones of metadata; the union bounds
// remain sound. The zones before the first mergeable pair stay where they
// are, and a sweep that finds no such pair writes nothing.
func (z *Zonemap) mergeSweep() int {
	first := 0
	for first+1 < len(z.zones) && !z.canMerge(&z.zones[first], &z.zones[first+1]) {
		first++
	}
	if first+1 >= len(z.zones) {
		return -1
	}
	before := len(z.zones)
	out := z.zones[:first]
	var merged []zone // the coalesced zones, for the sweep's ledger record
	for i := first; i < len(z.zones); {
		cur := z.zones[i]
		j := i + 1
		for j < len(z.zones) && z.canMerge(&cur, &z.zones[j]) {
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
	// One summary ledger record per sweep covering every coalesced run:
	// the affected row span and the union hull of the merged zones (which
	// merging leaves unchanged).
	z.maintZones += int64(before - len(out))
	hullMin, hullMax := bounds(hullOf(merged))
	z.record(obs.LedgerRecord{
		Kind: obs.EventMerge, Cause: "merge-cold",
		ZonesBefore: before, ZonesAfter: len(out),
		RowLo: merged[0].lo, RowHi: merged[len(merged)-1].hi,
		MinBefore: hullMin, MaxBefore: hullMax,
		MinAfter: hullMin, MaxAfter: hullMax,
	})
	return first
}

// canMerge reports whether zone next joins the run of cold zones merged so
// far into cur: both cold, compatible bounds.
func (z *Zonemap) canMerge(cur, next *zone) bool {
	return cur.heat < z.tune.mergeHeat &&
		next.heat < z.tune.mergeHeat &&
		boundsCompatible(cur, next)
}

// boundsCompatible reports whether merging a and b loses little pruning
// power: the union's value span must not exceed 1.5x the wider of the two.
// Without this gate, a narrow zone that keeps being scanned because its
// rows genuinely match (hot-region zones) would go cold and merge with a
// differently-valued neighbor, destroying exactly the metadata that made
// it informative and triggering split/merge churn.
func boundsCompatible(a, b *zone) bool {
	w := max(a.hull.Width(), b.hull.Width())
	return a.hull.Union(b.hull).Width() <= w+w/2
}

// mergeZones returns the sound union of two adjacent zones.
func mergeZones(a, b zone) zone {
	m := zone{lo: a.lo, hi: b.hi, hull: a.hull.Union(b.hull), nonNull: a.nonNull + b.nonNull,
		first: a.first, widened: a.widened || b.widened}
	// The merged zone inherits the warmer heat so a recently useful
	// neighbor is not dragged straight back into another merge cycle.
	m.heat = max(a.heat, b.heat)
	return m
}

// learnProbe applies a probe's per-zone verdicts, re-derived over the blocks
// Prune looked inside: a skipped or covered zone heats up; a zone it had to
// scan cools down and is planned for a split from its parts within the
// MaxZones budget — unless splits are off, or the zone is now colder than
// MergeHeat: the merge sweep is folding such a zone away, and splitting it
// again on one query's evidence would only churn. It returns the plans in
// zone order.
func (z *Zonemap) learnProbe(c *expr.Clause) (plans []splitPlan) {
	budget := z.tune.maxZones - len(z.zones)
	for bi := range z.blocks {
		if c.Test(z.blocks[bi].Sum) == expr.MatchNone {
			continue
		}
		lo, hi := zonemap.Members(bi, len(z.zones))
		for i := lo; i < hi; i++ {
			zn := &z.zones[i]
			if zn.pruned(c.Test(zn.hull)) {
				zn.heat += z.tune.heatAlpha * (1 - zn.heat)
				continue
			}
			zn.heat -= z.tune.heatAlpha * zn.heat
			if z.cfg.DisableSplit || budget <= 0 || zn.heat < z.tune.mergeHeat {
				continue
			}
			if subs := z.planSplit(zn, c, budget); subs != nil {
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
	for i := range z.zones {
		if zn := &z.zones[i]; c.Test(zn.hull) == expr.MatchNone {
			skipped += zn.hi - zn.lo
		}
	}
	return z.stepBenefit(skipped, len(z.zones))
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
			ZonesBefore: len(z.zones), ZonesAfter: len(z.zones),
			RowLo: 0, RowHi: z.tailLo,
		})
	}
}
