package zonemap

import (
	"adskip/internal/core"
	"adskip/internal/expr"
)

// ProbeFlat is Level.Probe as the per-entry walk it replaced: entries [lo,
// hi) tested one by one by test, the kind's test of one summary (for the
// hull, expr.Clause.Test). It is the reference the kernel is checked
// against.
func ProbeFlat[S, Q any](l Level[S, Q], lo, hi int, test func(S) expr.Match) (none, all uint64) {
	for i := lo; i < hi; i++ {
		switch test(l.At(i)) {
		case expr.MatchNone:
			none |= 1 << (i - lo)
		case expr.MatchAll:
			all |= 1 << (i - lo)
		}
	}
	return none, all
}

// PruneFlat is Prune as the grid probed before it had a block level or a
// kernel: every zone, then the tail, tested in row order by test, its
// verdict coalesced by the flat walk's own emitter. It is the reference
// the blocked Prune is checked against, which must emit the same result
// apart from ZonesProbed.
func PruneFlat[S comparable, Q any](g *Grid[S, Q], test func(S) expr.Match) core.PruneResult {
	zones := make([]Entry[S], 0, len(g.Zones)+1)
	for i := range g.Zones {
		zones = append(zones, g.Zone(i))
	}
	if t := g.tail; t.Hi > t.Lo {
		zones = append(zones, Entry[S]{t, g.tailSum.At(0)})
	}
	res := core.PruneResult{Enabled: true, ZonesProbed: len(zones)}
	for _, zn := range zones {
		m := expr.MatchNone
		if zn.NonNull != 0 {
			m = test(zn.Sum)
		}
		skip, covered := m == expr.MatchNone, m == expr.MatchAll && zn.NonNull == zn.Hi-zn.Lo
		lo, hi := zn.Rows()
		switch k := len(res.Zones); {
		case skip:
			res.RowsSkipped += hi - lo
		case k > 0 && res.Zones[k-1].Hi == lo && res.Zones[k-1].Covered == covered:
			res.Zones[k-1].Hi = hi
		default:
			res.Zones = append(res.Zones, core.CandidateZone{Lo: lo, Hi: hi, Covered: covered})
		}
	}
	return res
}
