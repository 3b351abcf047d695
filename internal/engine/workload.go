package engine

import (
	"time"

	"adskip/internal/obs"
	"adskip/internal/stats"
)

// Workload attribution: queries whose context carries a template
// fingerprint (stamped by a SQL frontend via obs.WithTemplate) are
// recorded into the shared stats table and executed under pprof labels,
// so CPU profiles segment by template. Queries without a fingerprint —
// direct engine API callers, the benchmark harness — never reach this
// file's code beyond one nil/empty check.

// recordWorkload folds one successful query into the stats table.
// Called from finishTrace under e.mu; the stats table has its own lock,
// ordered strictly after e.mu (stats never calls back into the engine).
func (e *Engine) recordWorkload(res *Result, tr *obs.QueryTrace, plans []colPlan) {
	s := stats.Sample{
		Fingerprint:  tr.Fingerprint,
		Table:        tr.Table,
		CacheHit:     tr.PlanCached,
		Latency:      tr.Total,
		RowsRead:     int64(res.Stats.RowsScanned),
		RowsReturned: int64(res.Count),
		RowsSkipped:  int64(res.Stats.RowsSkipped),
		BytesScanned: int64(res.Stats.BytesScanned),
	}
	for i := range plans {
		if plans[i].active {
			s.ZonesRead += int64(len(plans[i].res.Zones))
		}
	}
	if pruned := int64(res.Stats.ZonesProbed) - s.ZonesRead; pruned > 0 {
		s.ZonesPruned = pruned
	}
	e.stats.Record(s)
}

// recordWorkloadError attributes a failed query (cancellation, budget,
// validation, panic) to its template: only the call, the error, and the
// latency aggregate — there are no execution totals to report.
func (e *Engine) recordWorkloadError(fp string, cached bool, start time.Time) {
	e.stats.Record(stats.Sample{
		Fingerprint: fp,
		Table:       e.tbl.Name(),
		Err:         true,
		CacheHit:    cached,
		Latency:     time.Since(start),
	})
}
