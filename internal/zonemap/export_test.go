package zonemap

import (
	"adskip/internal/core"
	"adskip/internal/expr"
)

// PruneFlat is Prune as the grid probed before it had a block level: every
// zone tested in row order, its verdict coalesced by the flat walk's own
// emitter. It is the reference the blocked Prune is checked against, which
// must emit the same result apart from ZonesProbed.
func PruneFlat[S, Q any](g *Grid[S, Q], r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.sums)}
	for zi, nn := range g.nonNull {
		lo, hi := zi*g.zoneSize, min((zi+1)*g.zoneSize, g.n)
		m := expr.MatchNone
		if nn != 0 {
			m = g.kind.Test(&q, g.sums[zi])
		}
		skip, covered := m == expr.MatchNone, m == expr.MatchAll && int(nn) == hi-lo
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
