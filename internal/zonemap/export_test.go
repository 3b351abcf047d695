package zonemap

import (
	"adskip/internal/core"
	"adskip/internal/expr"
)

// PruneFlat is Prune as the grid probed before it had a block level: every
// zone, then the tail, tested in row order, its verdict coalesced by the
// flat walk's own emitter. It is the reference the blocked Prune is checked
// against, which must emit the same result apart from ZonesProbed.
func PruneFlat[S comparable, Q any](g *Grid[S, Q], r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	zones := g.Zones
	if t := g.tail; t.Hi > t.Lo {
		zones = append(zones[:len(zones):len(zones)], t)
	}
	res := core.PruneResult{Enabled: true, ZonesProbed: len(zones)}
	for _, zn := range zones {
		m := expr.MatchNone
		if zn.NonNull != 0 {
			m = g.kind.Test(&q, zn.Sum)
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
