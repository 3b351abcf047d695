package adskip

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"adskip/internal/engine"
	"adskip/internal/obs"
	"adskip/internal/stats"
)

// The front door. Every logical query the facade runs enters here, once:
// DB.Exec and DB.ExecContext, DB.ExplainAnalyze, Table.Query and
// Table.QueryContext — and so the query server, whose statement cache
// executes through Table.QueryContext. The door does the duties that
// belong to a logical query rather than to its execution, the same way
// over an engine as over a shard manager:
//
//   - it takes one of the DB's admission slots (Options.MaxConcurrentQueries);
//   - when the context carries a template fingerprint (a SQL route stamps
//     one), it runs the query under the query_template and session pprof
//     labels and records one workload sample, built from the result's
//     trace and stats alone;
//   - it appends the result's trace to the DB's ring.
//
// Below the door, an engine — or a shard manager and its per-shard
// engines — only executes and keeps its own metrics, so a sharded query is
// admitted, labelled, sampled and retained once, not once per shard.

// door is a table's executor seen through the front door. It implements
// sql.Executor, so SQL the sql package routes (plain queries and EXPLAIN
// ANALYZE alike) enters the door too.
type door struct {
	executor
	db *DB
}

// QueryContext runs q through the front door.
func (d door) QueryContext(ctx context.Context, q engine.Query) (*Result, error) {
	return d.db.query(ctx, d.executor, q)
}

// ExplainAnalyzeContext runs q through the front door and renders the
// observed plan, then the footers of the logical query: its template's
// workload line and its table's ledger line.
func (d door) ExplainAnalyzeContext(ctx context.Context, q engine.Query) ([]string, *Result, error) {
	res, err := d.QueryContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	lines := engine.AnalyzeLines(res, true)
	if wl := d.db.workloadLine(res.Trace.Fingerprint); wl != "" {
		lines = append(lines, wl)
	}
	if ll := d.db.ledgerLine(res.Trace.Table); ll != "" {
		lines = append(lines, ll)
	}
	return lines, res, nil
}

// query is the front door: it admits q, attributes it when ctx carries a
// template fingerprint, and retains its trace.
func (db *DB) query(ctx context.Context, e executor, q engine.Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	org := obs.OriginOf(ctx)
	if org.Fingerprint == "" {
		return db.admitted(ctx, e, q)
	}
	start := time.Now()
	var (
		res *Result
		err error
	)
	pprof.Do(ctx, pprof.Labels(
		"query_template", org.Fingerprint,
		"session", org.Session,
	), func(ctx context.Context) {
		res, err = db.admitted(ctx, e, q)
	})
	if err != nil {
		// A failed query has no execution totals: only the call, the
		// error and the latency aggregate.
		db.stats.Record(stats.Sample{
			Fingerprint: org.Fingerprint,
			Table:       e.Table().Name(),
			Err:         true,
			CacheHit:    org.PlanCached,
			Latency:     time.Since(start),
		})
		return nil, err
	}
	db.stats.Record(workloadSample(res))
	return res, nil
}

// admitted runs q in one admission slot and retains its trace. A query
// that gives up waiting for a slot counts as canceled on its table, as a
// query the executor stops does.
func (db *DB) admitted(ctx context.Context, e executor, q engine.Query) (*Result, error) {
	if err := db.admission.acquire(ctx); err != nil {
		db.reg.Counter("adskip_queries_canceled_total", "Queries stopped by context cancellation.",
			obs.L("table", e.Table().Name())).Inc()
		return nil, err
	}
	defer db.admission.release()
	res, err := e.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	db.traces.Append(res.Trace)
	return res, nil
}

// workloadSample is a completed query's workload sample, read from its
// trace: its cost, and the zones read — the candidate windows of the
// predicates whose skipper took part — and the zones pruned, the rest of
// the zones probed. An unsharded trace names no shard.
func workloadSample(res *Result) stats.Sample {
	tr := res.Trace
	s := stats.Sample{
		Fingerprint:  tr.Fingerprint,
		Table:        tr.Table,
		CacheHit:     tr.PlanCached,
		Latency:      tr.Total,
		Cost:         tr.Cost,
		RowsReturned: int64(res.Count),
		Shards:       tr.Shards,
	}
	for i := range tr.Predicates {
		if tr.Predicates[i].SkippersUsed > 0 {
			s.ZonesRead += int64(tr.Predicates[i].Windows)
		}
	}
	s.ZonesPruned = max(int64(tr.ZonesProbed)-s.ZonesRead, 0)
	return s
}

// workloadLine renders the EXPLAIN ANALYZE footer of a template: its
// cumulative calls and latency, so an analyzed query shows where it sits
// in the workload. "" for an unattributed query (no template holds "").
func (db *DB) workloadLine(fp string) string {
	ts, ok := db.stats.Template(fp)
	if !ok {
		return ""
	}
	return fmt.Sprintf("workload: template %q — %d calls (%d errors, %d cache hits), mean %.0fµs, p95 %.0fµs, %.1f%% rows skipped",
		ts.Fingerprint, ts.Calls, ts.Errors, ts.CacheHits, ts.MeanUS, ts.P95US, 100*ts.SkipRatio)
}

// ledgerLine renders the EXPLAIN ANALYZE footer of a table's adaptation
// ledger: its lifetime totals (events, splits, and the template behind the
// most recent split), so an analyzed query also reports how much
// structural churn its table has seen. "" before any ledger activity.
func (db *DB) ledgerLine(table string) string {
	lt := db.ledger.Totals(table)
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

// admission bounds the DB's concurrently executing logical queries
// (Options.MaxConcurrentQueries). A nil *admission admits everything.
type admission struct {
	sem     chan struct{}
	waiting atomic.Int64
}

// newAdmission returns a controller allowing n concurrent queries, or nil
// (unbounded) when n <= 0.
func newAdmission(n int) *admission {
	if n <= 0 {
		return nil
	}
	return &admission{sem: make(chan struct{}, n)}
}

// acquire takes an execution slot, waiting until one frees or ctx is
// done.
func (a *admission) acquire(ctx context.Context) error {
	if a == nil {
		return nil
	}
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	// Only the blocked path maintains the queue-depth gauge: admitted
	// queries pay nothing beyond the channel send above.
	a.waiting.Add(1)
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w while waiting for admission: %v", ErrCanceled, context.Cause(ctx))
	}
}

// release returns an execution slot.
func (a *admission) release() {
	if a != nil {
		<-a.sem
	}
}

// queued reports how many queries are blocked waiting for a slot: the
// adskip_admission_waiting gauge. Zero for a nil (unbounded) controller.
func (a *admission) queued() int64 {
	if a == nil {
		return 0
	}
	return a.waiting.Load()
}
