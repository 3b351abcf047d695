package engine

import (
	"context"
	"log/slog"
	"strconv"
	"time"

	"adskip/internal/core"
	"adskip/internal/obs"
)

// Metric instrumentation is always on and built to be cheap: every handle
// below is resolved once (at engine construction or when skipping is
// enabled on a column) so the per-query cost is a handful of atomic adds —
// no registry lookups, no locks, and no allocation on the row-scan path.

// Histogram buckets come from the shared obs defaults (obs.LatencyBuckets,
// obs.RowCountBuckets, obs.RatioBuckets) so every latency, row-volume, and
// ratio histogram in the process lines up bucket-for-bucket.

// engMetrics holds the engine-level metric handles, one set per table.
type engMetrics struct {
	queries          *obs.Counter
	rowsScanned      *obs.Counter
	rowsSkipped      *obs.Counter
	rowsCovered      *obs.Counter
	zonesProbed      *obs.Counter
	skippersUsed     *obs.Counter
	skippersDeclined *obs.Counter
	latency          *obs.Histogram
	selectivity      *obs.Histogram
	scannedPerQuery  *obs.Histogram

	// Resilience instrumentation.
	canceled    *obs.Counter // queries stopped by context cancellation
	overBudget  *obs.Counter // queries stopped by a resource limit
	panics      *obs.Counter // execution panics recovered
	retries     *obs.Counter // queries retried after quarantine
	quarantines *obs.Counter // skippers pulled from service
	inflight    *obs.Gauge   // queries currently executing
}

// metricLabels builds the identity label set for a table's series: the
// table label always, plus shard="N" when the engine is one shard of a
// sharded table (shard > 0). Keeping unsharded engines label-identical to
// earlier releases preserves every existing dashboard and smoke assertion.
func metricLabels(table string, shard int, more ...obs.Label) []obs.Label {
	labels := []obs.Label{obs.L("table", table)}
	if shard > 0 {
		labels = append(labels, obs.L("shard", strconv.Itoa(shard)))
	}
	return append(labels, more...)
}

// newEngMetrics resolves the per-table metric handles in reg.
func newEngMetrics(reg *obs.Registry, table string, shard int) engMetrics {
	ls := metricLabels(table, shard)
	return engMetrics{
		queries:          reg.Counter("adskip_queries_total", "Queries executed.", ls...),
		rowsScanned:      reg.Counter("adskip_rows_scanned_total", "Rows read by scan kernels.", ls...),
		rowsSkipped:      reg.Counter("adskip_rows_skipped_total", "Rows pruned by metadata probes.", ls...),
		rowsCovered:      reg.Counter("adskip_rows_covered_total", "Rows short-circuited by covered windows.", ls...),
		zonesProbed:      reg.Counter("adskip_zones_probed_total", "Zone metadata probes performed.", ls...),
		skippersUsed:     reg.Counter("adskip_skippers_used_total", "Predicate columns where skipping participated.", ls...),
		skippersDeclined: reg.Counter("adskip_skippers_declined_total", "Predicate columns where the skipper declined.", ls...),
		latency:          reg.Histogram("adskip_query_seconds", "Query wall-clock latency.", obs.LatencyBuckets(), ls...),
		selectivity:      reg.Histogram("adskip_query_selectivity", "Fraction of table rows matching per query.", obs.RatioBuckets(), ls...),
		scannedPerQuery:  reg.Histogram("adskip_query_rows_scanned", "Rows read by scan kernels per query.", obs.RowCountBuckets(), ls...),
		canceled:         reg.Counter("adskip_queries_canceled_total", "Queries stopped by context cancellation.", ls...),
		overBudget:       reg.Counter("adskip_queries_over_budget_total", "Queries stopped by a resource limit.", ls...),
		panics:           reg.Counter("adskip_panics_recovered_total", "Execution panics recovered into errors.", ls...),
		retries:          reg.Counter("adskip_query_retries_total", "Queries retried after skipper quarantine.", ls...),
		quarantines:      reg.Counter("adskip_skipper_quarantines_total", "Skippers pulled from service after a failure.", ls...),
		inflight:         reg.Gauge("adskip_inflight_queries", "Queries currently executing.", ls...),
	}
}

// colMetrics holds the per-column probe counters, resolved when skipping
// is enabled on the column. The column's skipper gauges are GaugeFuncs
// beside them, read at scrape time.
type colMetrics struct {
	probeQueries  *obs.Counter // probes where the skipper participated
	declined      *obs.Counter // probes where the skipper declined
	zonesProbed   *obs.Counter
	rowsSkipped   *obs.Counter // prune hits: rows proven non-matching
	candidateRows *obs.Counter // rows left inside candidate windows
	coveredRows   *obs.Counter // candidate rows proven fully matching
	// events counts adaptation records by kind, each resolved on its first.
	events [obs.NumEventKinds]*obs.Counter
	// maintZones is the zones the skipper's own records touched, the ROI
	// row's maintenance beside its events[...] counts. Written by the
	// journal sink and read by AdaptationROI, both under e.mu.
	maintZones int64
}

// colMetrics resolves (and caches) the handles for one column, and
// registers its skipper gauges: each reads the column's live skipper under
// the engine mutex when the registry is exposed (outside the registry's
// own mutex), and reads zero while the column has none (dropped after a
// fault).
// Caller holds e.mu.
func (e *Engine) colMetrics(name string) *colMetrics {
	if cm, ok := e.colM[name]; ok {
		return cm
	}
	ls := metricLabels(e.tbl.Name(), e.opts.Shard, obs.L("column", name))
	cm := &colMetrics{
		probeQueries:  e.reg.Counter("adskip_column_probe_queries_total", "Probes in which the column's skipper participated.", ls...),
		declined:      e.reg.Counter("adskip_column_probe_declined_total", "Probes in which the column's skipper declined.", ls...),
		zonesProbed:   e.reg.Counter("adskip_column_zones_probed_total", "Zone probes on the column.", ls...),
		rowsSkipped:   e.reg.Counter("adskip_column_rows_skipped_total", "Rows the column's metadata pruned.", ls...),
		candidateRows: e.reg.Counter("adskip_column_candidate_rows_total", "Rows left in candidate windows after pruning.", ls...),
		coveredRows:   e.reg.Counter("adskip_column_covered_rows_total", "Candidate rows proven fully matching by metadata.", ls...),
	}
	md := func() core.Metadata {
		e.mu.Lock()
		defer e.mu.Unlock()
		if s := e.skippers[name]; s != nil {
			return s.Metadata()
		}
		return core.Metadata{}
	}
	e.reg.GaugeFunc("adskip_skipper_zones", "Current zone count of the column's metadata.",
		func() int64 { return int64(md().Zones) }, ls...)
	e.reg.GaugeFunc("adskip_skipper_bytes", "Current metadata footprint of the column.",
		func() int64 { return int64(md().Bytes) }, ls...)
	e.reg.GaugeFunc("adskip_skipper_enabled", "1 while arbitration allows skipping on the column.", func() int64 {
		if md().Enabled {
			return 1
		}
		return 0
	}, ls...)
	e.colM[name] = cm
	return cm
}

// record charges one probe outcome, a predicate column's cost, to the
// column's cumulative counters (queries and EXPLAINs alike — both pay the
// probe).
func (cm *colMetrics) record(c *obs.Cost) {
	if c.SkippersUsed == 0 {
		cm.declined.Inc()
		return
	}
	cm.probeQueries.Inc()
	cm.zonesProbed.Add(int64(c.ZonesProbed))
	cm.rowsSkipped.Add(int64(c.RowsSkipped))
	cm.candidateRows.Add(int64(c.CandidateRows))
	cm.coveredRows.Add(int64(c.RowsCovered))
}

// journal returns the one adaptation sink for a column: installed on the
// column's skipper (Skipper.SetJournal) and called directly for the engine's
// own lifecycle records. It stamps table/shard/column identity and — when
// the record arrives mid-query — the fingerprint of the query whose
// feedback triggered the change, bumps the per-kind counter and the
// column's maintenance zones, appends to
// the shared ledger, and (when a logger is configured) emits a structured
// log line: milestones at info, quarantines at warn, chatty per-zone
// structural churn at debug. Skippers emit only on structural change and
// are called under the engine mutex, so reading e.trace here is safe.
// Caller holds e.mu.
func (e *Engine) journal(col string) func(obs.LedgerRecord) {
	table, shard, cm := e.tbl.Name(), e.opts.Shard, e.colMetrics(col)
	return func(rec obs.LedgerRecord) {
		rec.Table, rec.Column, rec.Shard = table, col, shard
		if rec.Fingerprint == "" && e.trace != nil {
			rec.Fingerprint = e.trace.Fingerprint
		}
		if cm.events[rec.Kind] == nil {
			cm.events[rec.Kind] = e.reg.Counter("adskip_adapt_events_total", "Adaptation records by kind.",
				metricLabels(table, shard, obs.L("column", col), obs.L("kind", rec.Kind.String()))...)
		}
		cm.events[rec.Kind].Inc()
		switch rec.Kind {
		case obs.EventSplit, obs.EventMerge:
			cm.maintZones += int64(max(rec.ZonesBefore, rec.ZonesAfter))
		case obs.EventTailFold:
			cm.maintZones += int64(rec.ZonesAfter - rec.ZonesBefore)
		}
		e.ledger.Append(rec)
		if e.log != nil {
			lvl := slog.LevelDebug
			switch rec.Kind {
			case obs.EventDisable, obs.EventEnable, obs.EventSkipperBuilt:
				lvl = slog.LevelInfo
			case obs.EventQuarantine:
				lvl = slog.LevelWarn
			}
			e.log.Log(context.Background(), lvl, "adaptation event",
				"table", table, "column", col, "kind", rec.Kind.String(), "cause", rec.Cause,
				"zones_before", rec.ZonesBefore, "zones_after", rec.ZonesAfter)
		}
	}
}

// tracePredicates fills the trace's per-predicate section from the probed
// plans — each probe's outcome as a cost record: the zones its skipper
// probed, the rows it skipped, the candidate windows it left and why the
// zones among them were not skipped — adds each column's probe to the
// query's cost q and charges it to the per-column counters. A query and
// an EXPLAIN both call it: both pay the probe.
func (e *Engine) tracePredicates(tr *obs.QueryTrace, plans []colPlan, q *ExecStats) {
	tr.Predicates = make([]obs.PredicateTrace, len(plans))
	for i := range plans {
		p := &plans[i]
		pt := &tr.Predicates[i]
		pt.Column = p.name
		if p.pred.NullOnly {
			pt.Predicate = "IS NULL"
		} else {
			pt.Predicate = p.pred.R.String()
		}
		pt.Matched = -1
		if p.skipper == nil {
			continue
		}
		pt.Skipper = p.skipper.Metadata().Kind
		pt.ZonesProbed, pt.RowsSkipped, pt.Windows = p.res.ZonesProbed, p.res.RowsSkipped, len(p.res.Zones)
		pt.NotSkippedOverlap, pt.NotSkippedNullStraddle = p.res.MissOverlap, p.res.MissNullStraddle
		if p.active {
			pt.SkippersUsed = 1
		}
		for _, z := range p.res.Zones {
			pt.CandidateRows += z.Hi - z.Lo
			if z.Covered {
				pt.CoveredWindows++
				pt.RowsCovered += z.Hi - z.Lo
			}
		}
		q.ZonesProbed += pt.ZonesProbed
		q.RowsSkipped += pt.RowsSkipped
		q.SkippersUsed += pt.SkippersUsed
		e.colMetrics(p.name).record(&pt.Cost)
	}
}

// finishTrace closes out the query's trace and charges the query-level
// metrics. Called with the engine mutex held, at the end of Query.
func (e *Engine) finishTrace(res *Result, tr *obs.QueryTrace, plans []colPlan, n, limit int) {
	tr.Total = time.Since(tr.Start)
	tr.Cost = res.Stats
	tr.RowsTotal = n
	tr.Matched = res.Count
	// Attribute the observed match count to the predicate when it is
	// unambiguous: exactly one predicate column and no row-limit applied.
	if len(plans) == 1 && len(tr.Predicates) == 1 && limit == 0 {
		tr.Predicates[0].Matched = res.Count
	}
	res.Trace = tr

	e.m.queries.Inc()
	e.m.rowsScanned.Add(int64(res.Stats.RowsScanned))
	e.m.rowsSkipped.Add(int64(res.Stats.RowsSkipped))
	e.m.rowsCovered.Add(int64(res.Stats.RowsCovered))
	e.m.zonesProbed.Add(int64(res.Stats.ZonesProbed))
	e.m.skippersUsed.Add(int64(res.Stats.SkippersUsed))
	e.m.latency.Observe(tr.Total.Seconds())
	e.m.scannedPerQuery.Observe(float64(res.Stats.RowsScanned))
	if n > 0 {
		e.m.selectivity.Observe(float64(res.Count) / float64(n))
	}
	for i := range plans {
		if plans[i].skipper != nil && !plans[i].active {
			e.m.skippersDeclined.Inc()
		}
	}
}
