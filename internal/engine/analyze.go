package engine

import (
	"context"
	"fmt"
	"time"

	"adskip/internal/obs"
)

// ExplainAnalyze executes q and renders the observed plan: per-phase wall
// clock timings (plan → metadata probe → scan → feedback) and, per
// predicate column, the probe's estimated pruning against what execution
// actually observed. Unlike Explain, the query really runs — the output
// reports actuals, and adaptive skippers receive their normal feedback,
// so repeating an EXPLAIN ANALYZE shows the structure converging.
//
// The returned result is the executed query's result (rows, aggregates,
// stats, trace), so callers pay for one execution, not two.
func (e *Engine) ExplainAnalyze(q Query) ([]string, *Result, error) {
	return e.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext is ExplainAnalyze under a caller context. When
// the context carries a template fingerprint and workload stats are on,
// the execution is attributed like any other query and the rendering
// gains a workload footer: the template's cumulative call count and
// latency, so an analyzed query shows where it sits in the workload.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, q Query) ([]string, *Result, error) {
	res, err := e.QueryContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	lines := AnalyzeLines(res, true)
	if wl := e.workloadLine(res.Trace); wl != "" {
		lines = append(lines, wl)
	}
	if ll := e.ledgerLine(); ll != "" {
		lines = append(lines, ll)
	}
	return lines, res, nil
}

// workloadLine renders the per-template footer, or "" when the query was
// not attributed (no stats table, or no fingerprint on the context).
func (e *Engine) workloadLine(tr *obs.QueryTrace) string {
	if e.stats == nil || tr == nil || tr.Fingerprint == "" {
		return ""
	}
	ts, ok := e.stats.Template(tr.Fingerprint)
	if !ok {
		return ""
	}
	return fmt.Sprintf("workload: template %q — %d calls (%d errors, %d cache hits), mean %.0fµs, p95 %.0fµs, %.1f%% rows skipped",
		ts.Fingerprint, ts.Calls, ts.Errors, ts.CacheHits, ts.MeanUS, ts.P95US, 100*ts.SkipRatio)
}

// ledgerLine renders the adaptation-ledger footer: the table's lifetime
// ledger totals (events since the table was loaded, split count, and the
// template behind the most recent split), or "" before any ledger
// activity. Shown next to the workload footer so an analyzed query also
// reports how much structural churn its table has seen.
func (e *Engine) ledgerLine() string {
	lt := e.ledger.Totals(e.tbl.Name())
	if lt.Events == 0 {
		return ""
	}
	line := fmt.Sprintf("ledger: %d adaptation events (%d splits)", lt.Events, lt.Splits)
	if !lt.LastSplit.IsZero() {
		line += fmt.Sprintf(", last split %s ago by %q",
			time.Since(lt.LastSplit).Round(time.Millisecond), lt.LastSplitCause)
	}
	return line
}

// AnalyzeLines renders an executed query's trace in EXPLAIN ANALYZE form.
// Timings are omitted when withTimings is false (golden tests assert on
// the deterministic remainder).
func AnalyzeLines(res *Result, withTimings bool) []string {
	tr := res.Trace
	if tr == nil {
		return []string{"no trace recorded"}
	}
	out := []string{fmt.Sprintf("EXPLAIN ANALYZE: table %q (%d rows), %d rows matched", tr.Table, tr.RowsTotal, res.Count)}
	out = append(out, tr.Lines(withTimings)[1:]...)
	out = append(out, analyzeSummary(tr))
	return out
}

// analyzeSummary is the footer: how the table's rows divided into skipped
// vs covered vs scanned, i.e. how much work pruning actually saved.
func analyzeSummary(tr *obs.QueryTrace) string {
	avoided := tr.RowsSkipped + tr.RowsCovered
	return fmt.Sprintf("pruning: %d of %d rows avoided (%.1f%%): %d skipped, %d covered; %d scanned",
		avoided, tr.RowsTotal, pct(avoided, tr.RowsTotal),
		tr.RowsSkipped, tr.RowsCovered, tr.RowsScanned)
}
