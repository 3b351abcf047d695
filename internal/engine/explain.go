package engine

import (
	"fmt"

	"adskip/internal/obs"
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
	// EXPLAIN pays for a real probe, so tracePredicates charges it to the
	// column's cumulative counters like any query's, though the skipper
	// itself learns nothing from it.
	var (
		tr   obs.QueryTrace
		cost ExecStats
	)
	e.tracePredicates(&tr, plans, &cost)
	allCovered := true
	for i := range tr.Predicates {
		p := &tr.Predicates[i]
		out = p.AppendLines(out, n)
		if p.SkippersUsed == 0 {
			allCovered = false
			continue
		}
		allCovered = allCovered && p.CoveredWindows == p.Windows
		out = append(out, "  "+e.lifetimeLine(p.Column))
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
// metrics registry, so repeated EXPLAINs expose adaptation progressing, and
// the zones its skipper holds now. The column has a skipper.
func (e *Engine) lifetimeLine(col string) string {
	cm := e.colMetrics(col)
	skipped := cm.rowsSkipped.Load()
	cand := cm.candidateRows.Load()
	return fmt.Sprintf("lifetime: %d probes (%d declined), %d zone probes, %d rows skipped / %d candidate (prune hit rate %.1f%%); %d zones now",
		cm.probeQueries.Load(), cm.declined.Load(), cm.zonesProbed.Load(), skipped, cand,
		obs.Pct(int(skipped), int(skipped+cand)), e.skippers[col].Metadata().Zones)
}
