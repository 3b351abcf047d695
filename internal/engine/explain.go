package engine

import (
	"fmt"
)

// Explain plans q without executing its scans and renders one line per
// plan element: the query shape, each predicate column's lowered intervals,
// its skipper's pruning outcome, and the resulting candidate windows.
//
// Explain performs a real metadata probe over live metadata (that is what
// makes the output truthful), but no query follows it, so no Observe does:
// an adaptive zonemap learns nothing from an EXPLAIN, and repeating one
// shows the same plan until queries reshape the structure.
func (e *Engine) Explain(q Query) ([]string, error) {
	if q.Limit < 0 {
		return nil, ErrBadLimit
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncSkippers()
	if _, err := e.bind(q); err != nil {
		return nil, err
	}
	n := e.tbl.NumRows()
	var out []string
	out = append(out, fmt.Sprintf("scan table %q (%d rows)", e.tbl.Name(), n))

	shape := "count-only"
	switch {
	case q.GroupBy != "":
		shape = fmt.Sprintf("group by %q, %d aggregate(s)", q.GroupBy, len(q.Aggs))
	case len(q.Select) > 0:
		shape = fmt.Sprintf("project %d column(s)", len(q.Select))
	case len(q.Aggs) > 0:
		shape = fmt.Sprintf("%d aggregate(s)", len(q.Aggs))
	}
	out = append(out, "output: "+shape)

	plans, unsat, err := e.plan(q.Where)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		out = append(out, "no predicates: full scan")
		return out, nil
	}
	allCovered := len(plans) > 0
	for i := range plans {
		p := &plans[i]
		var predDesc string
		if p.pred.NullOnly {
			predDesc = "IS NULL"
		} else {
			predDesc = p.pred.R.String()
		}
		line := fmt.Sprintf("predicate on %q: %s", p.name, predDesc)
		if p.skipper == nil {
			out = append(out, line+" — no skipper, full evaluation")
			allCovered = false
			continue
		}
		// EXPLAIN pays for a real probe, so it counts toward the column's
		// cumulative probe/prune counters like any query, though the
		// skipper itself learns nothing from it.
		c := probeCost(p)
		e.colMetrics(p.name).record(&c)
		md := p.skipper.Metadata()
		if !p.active {
			out = append(out, fmt.Sprintf("%s — %s skipper declined (disabled), full evaluation", line, md.Kind))
			allCovered = false
			continue
		}
		if c.CoveredWindows < c.Windows {
			allCovered = false
		}
		out = append(out, fmt.Sprintf(
			"%s — %s skipper: %d zones (%d probes), %d candidate windows (%d rows covered), %d rows skippable (%.1f%%)",
			line, md.Kind, md.Zones, c.ZonesProbed, c.Windows, c.RowsCovered,
			c.RowsSkipped, pct(c.RowsSkipped, n)))
		out = append(out, "  "+e.lifetimeLine(p.name))
	}
	if unsat {
		out = append(out, "predicates are unsatisfiable: no scan will run")
		return out, nil
	}
	if len(plans) > 1 {
		out = append(out, fmt.Sprintf("intersect candidate windows across %d columns", len(plans)))
	}
	if allCovered {
		out = append(out, "all candidate windows covered: no residual predicate evaluation needed")
	}
	return out, nil
}

// lifetimeLine renders a column's cumulative probe/prune counters from the
// metrics registry, so repeated EXPLAINs expose adaptation progressing.
func (e *Engine) lifetimeLine(col string) string {
	cm := e.colMetrics(col)
	skipped := cm.rowsSkipped.Load()
	cand := cm.candidateRows.Load()
	hitRate := 0.0
	if skipped+cand > 0 {
		hitRate = float64(skipped) / float64(skipped+cand) * 100
	}
	return fmt.Sprintf("lifetime: %d probes (%d declined), %d zone probes, %d rows skipped / %d candidate (prune hit rate %.1f%%)",
		cm.probeQueries.Load(), cm.declined.Load(), cm.zonesProbed.Load(), skipped, cand, hitRate)
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}
