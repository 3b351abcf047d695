package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// Query is the engine-level query form the SQL planner lowers to: a
// conjunctive filter plus either an aggregate list or a projection.
type Query struct {
	Where  expr.Conj
	Aggs   []Agg    // aggregate query when non-empty
	Select []string // projection query otherwise (empty = count only)
	// GroupBy names a single grouping column. When set, Aggs are computed
	// per group, Select may contain only the grouping column itself, and
	// result rows are one per group in key order (NULL group last).
	GroupBy string
	// OrderBy names a column to sort projected rows by (value order,
	// NULLs last; OrderDesc reverses). Projection queries only.
	OrderBy   string
	OrderDesc bool
	Limit     int // row cap (groups for GROUP BY); 0 = unlimited
}

// ExecStats instruments one query execution; the experiment harness reads
// these to report pruning behavior alongside wall-clock time.
type ExecStats struct {
	RowsScanned  int `json:"rows_scanned"` // rows whose codes were read by a kernel
	BytesScanned int `json:"-"`            // those rows at each filtered column's code width (4 or 8); not on the wire
	RowsSkipped  int `json:"rows_skipped"` // rows pruned by metadata probes
	RowsCovered  int `json:"rows_covered"` // rows short-circuited by covered windows
	ZonesProbed  int `json:"zones_probed"`
	SkippersUsed int `json:"skippers_used"` // predicate columns where skipping participated
	// Shard pruning (sharded tables only; see internal/shard). Shards
	// whose key bounds cannot intersect the predicate are eliminated
	// before any zone metadata is consulted. Zero (omitted on the wire)
	// for unsharded engines.
	ShardsScanned int `json:"shards_scanned,omitempty"`
	ShardsPruned  int `json:"shards_pruned,omitempty"`
}

// scanned charges a kernel pass over rows rows of col.
func (s *ExecStats) scanned(rows int, col *storage.Column) {
	s.RowsScanned += rows
	s.BytesScanned += rows * col.Vec().Width()
}

// Result is a query result.
type Result struct {
	Count   int             // qualifying rows (projection: rows returned)
	Aggs    []storage.Value // one per Query.Aggs
	Columns []string        // projection column names
	// Types holds the logical type of each projected column, aligned with
	// Columns. It feeds the wire encoding (MarshalJSON), which needs
	// column types even for empty result sets.
	Types []storage.Type
	Rows  [][]storage.Value
	Stats ExecStats
	// Trace records the execution's phase timings and per-predicate
	// skipping decisions. Always populated (one allocation per query).
	Trace *obs.QueryTrace
}

// maxPredicateColumns bounds the per-segment evaluation bitmask.
const maxPredicateColumns = 64

// colPlan is the per-predicate-column execution state.
type colPlan struct {
	name    string
	col     *storage.Column
	pred    expr.ColPred
	skipper core.Skipper
	res     core.PruneResult
	active  bool // skipper participated (enabled)
	// stats is what the fast COUNT path's scan gathered for the candidates
	// that asked for statistics; Observe receives it after the scan.
	stats []core.ZoneStats
}

// Query plans and executes q, returning the result and feeding the
// probe results back into any adaptive skippers involved. It is
// QueryContext with a background context: no cancellation, but the
// engine's configured Limits still apply.
func (e *Engine) Query(q Query) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext executes q under ctx's cancellation and the engine's
// per-query resource limits. Cancellation is cooperative: scans check the
// context at least once per checkpointRows rows, so an expired context
// returns ErrCanceled within one checkpoint interval. A query whose
// skipper panics or self-reports corruption quarantines that skipper and
// retries once without it (full scan), preserving correctness.
func (e *Engine) QueryContext(ctx context.Context, q Query) (*Result, error) {
	if q.Limit < 0 {
		return nil, ErrBadLimit
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		e.m.canceled.Inc()
		return nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
	e.m.inflight.Add(1)
	defer e.m.inflight.Add(-1)

	retried := false
	for {
		res, err := e.queryOnce(ctx, q)
		if err == nil {
			return res, nil
		}
		if !retried && errors.Is(err, errQuarantineRetry) {
			retried = true
			e.m.retries.Inc()
			continue
		}
		switch {
		case errors.Is(err, ErrCanceled):
			e.m.canceled.Inc()
		case errors.Is(err, ErrBudget):
			e.m.overBudget.Inc()
		}
		return nil, err
	}
}

// queryOnce runs one planning + execution attempt under the engine mutex.
// A panic anywhere in execution is recovered here: skippers that were
// actively pruning are quarantined (the metadata is the prime corruption
// suspect) and the error is marked retryable.
func (e *Engine) queryOnce(ctx context.Context, q Query) (out *Result, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var plans []colPlan
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, e.handleExecPanic(plans, &panicError{val: r, stack: debug.Stack()})
		}
	}()
	qc := e.newQctx(ctx)
	tr := &obs.QueryTrace{Table: e.tbl.Name(), Start: time.Now(),
		Session:     obs.SessionFromContext(ctx),
		TraceID:     obs.TraceFromContext(ctx),
		Fingerprint: obs.TemplateFromContext(ctx),
		PlanCached:  obs.PlanCachedFromContext(ctx)}
	e.trace = tr
	defer func() { e.trace = nil }()
	e.syncSkippers()
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}

	n := e.tbl.NumRows()
	res := &Result{}

	// Validate aggregates and projections up front.
	accs := make([]*aggAcc, len(q.Aggs))
	aggCols := make([]*storage.Column, len(q.Aggs))
	for i, a := range q.Aggs {
		col, err := e.validateAgg(a)
		if err != nil {
			return nil, err
		}
		accs[i] = newAggAcc(a.Kind, col)
		aggCols[i] = col
	}
	var grp *grouper
	if q.GroupBy != "" {
		gcol, err := e.readColumn(q.GroupBy)
		if err != nil {
			return nil, err
		}
		for _, name := range q.Select {
			if name != q.GroupBy {
				return nil, fmt.Errorf("engine: column %q in select list is not the GROUP BY column", name)
			}
		}
		grp = newGrouper(gcol, q.Aggs, aggCols)
	}
	var projCols []*storage.Column
	if grp == nil {
		for _, name := range q.Select {
			col, err := e.readColumn(name)
			if err != nil {
				return nil, err
			}
			projCols = append(projCols, col)
			res.Columns = append(res.Columns, name)
			res.Types = append(res.Types, col.Type())
		}
	}
	var orderCol *storage.Column
	if q.OrderBy != "" {
		if grp != nil {
			return nil, fmt.Errorf("engine: ORDER BY with GROUP BY is unsupported (groups come back in key order)")
		}
		if len(projCols) == 0 {
			return nil, fmt.Errorf("engine: ORDER BY requires a projection")
		}
		var err error
		orderCol, err = e.readColumn(q.OrderBy)
		if err != nil {
			return nil, err
		}
	}

	tr.Plan = time.Since(tr.Start)

	// A pre-scan checkpoint so planning-heavy queries still honor limits.
	if err := qc.check(0); err != nil {
		return nil, err
	}

	// Lower predicates per column and probe skippers.
	tProbe := time.Now()
	var unsat bool
	plans, unsat, err = e.plan(q.Where)
	if err != nil {
		return nil, err
	}
	if len(plans) > maxPredicateColumns {
		return nil, fmt.Errorf("engine: more than %d predicate columns", maxPredicateColumns)
	}
	for i := range plans {
		p := &plans[i]
		res.Stats.ZonesProbed += p.res.ZonesProbed
		res.Stats.RowsSkipped += p.res.RowsSkipped
		if p.active {
			res.Stats.SkippersUsed++
		}
	}
	tr.Probe = time.Since(tProbe)
	e.tracePredicates(tr, plans)

	tScan := time.Now()
	switch {
	case unsat:
		// A contradiction (or empty interval) on some column: no rows can
		// match. Skippers still observe a zero-work query.
	case grp == nil && len(plans) == 1 && len(projCols) == 0 && countOnly(accs):
		err = e.execFastCount(qc, &plans[0], res, accs, n)
	case orderCol != nil:
		err = e.execOrdered(qc, plans, res, accs, projCols, orderCol, q.OrderDesc, q.Limit, n)
	default:
		err = e.execGeneral(qc, plans, res, accs, projCols, grp, q.Limit, n)
	}
	if err != nil {
		// A worker panic surfaces here as an error (recovered in its own
		// goroutine — panics cannot cross goroutines); treat it like an
		// in-line panic: quarantine the active skippers and mark retryable.
		var pe *panicError
		if errors.As(err, &pe) {
			return nil, e.handleExecPanic(plans, pe)
		}
		return nil, err
	}
	tr.Scan = time.Since(tScan)
	// Feedback runs once, after a completed scan: a failed query teaches
	// no skipper anything.
	tFeedback := time.Now()
	for i := range plans {
		e.observe(&plans[i])
	}
	tr.Feedback = time.Since(tFeedback)
	out = e.finish(res, accs, grp, q.Limit)
	e.finishTrace(out, tr, plans, n, q.Limit)
	return out, nil
}

// handleExecPanic records a recovered execution panic: every skipper that
// was actively pruning for the query is quarantined (corrupt metadata is
// the prime suspect for out-of-range candidate windows), and when at
// least one was, the error is marked retryable — the retry runs without
// them, as full scans. Caller holds e.mu.
func (e *Engine) handleExecPanic(plans []colPlan, pe *panicError) error {
	e.m.panics.Inc()
	quarantined := 0
	for i := range plans {
		if plans[i].active && plans[i].skipper != nil {
			e.quarantineLocked(plans[i].name, pe)
			quarantined++
		}
	}
	if quarantined > 0 {
		return fmt.Errorf("%w: %w (quarantined %d skipper(s))", errQuarantineRetry, pe, quarantined)
	}
	return fmt.Errorf("engine: execution panicked: %w", pe)
}

// safeProbe probes a plan's skipper for candidate windows, converting
// panics and self-reported corruption (Skipper.Health) into
// quarantine + full-scan fallback. Caller holds e.mu.
func (e *Engine) safeProbe(p *colPlan) {
	if p.skipper == nil {
		return
	}
	if perr := func() (err error) {
		defer recoverToError(&err)
		if p.pred.NullOnly {
			p.res = p.skipper.PruneNulls()
		} else {
			p.res = p.skipper.Prune(p.pred.R)
		}
		return nil
	}(); perr != nil {
		e.quarantineLocked(p.name, perr)
		p.skipper, p.res, p.active = nil, core.PruneResult{}, false
		return
	}
	if e.checkSkipperHealth(p.name, p.skipper) {
		// The probe detected corruption and declined; the column now runs
		// as a plain full scan.
		p.skipper, p.res, p.active = nil, core.PruneResult{}, false
		return
	}
	p.active = p.res.Enabled
}

// observe hands a plan's probe result and the statistics its scan gathered
// back to its skipper. A panicking Observe quarantines the skipper: the
// query's result is already computed, so only the metadata is at stake.
// Caller holds e.mu.
func (e *Engine) observe(p *colPlan) {
	if p.skipper == nil {
		return
	}
	perr := func() (err error) {
		defer recoverToError(&err)
		p.skipper.Observe(p.res, p.stats)
		return nil
	}()
	if perr != nil {
		e.quarantineLocked(p.name, perr)
		p.skipper = nil
	}
}

// finish materializes aggregate or grouped output onto the result.
func (e *Engine) finish(res *Result, accs []*aggAcc, grp *grouper, limit int) *Result {
	if grp != nil {
		res.Columns, res.Types, res.Rows = grp.result()
		if limit > 0 && len(res.Rows) > limit {
			res.Rows = res.Rows[:limit]
		}
		return res
	}
	e.finishAggs(res, accs)
	return res
}

// plan lowers the conjunction per referenced column and probes skippers.
// unsat is true when some column's intervals are empty (no row can match).
func (e *Engine) plan(where expr.Conj) ([]colPlan, bool, error) {
	var plans []colPlan
	unsat := false
	for _, name := range where.Columns() {
		col, err := e.readColumn(name)
		if err != nil {
			return nil, false, err
		}
		cp, err := expr.LowerColumn(where, col)
		if err != nil {
			return nil, false, err
		}
		p := colPlan{name: name, col: col, pred: cp, skipper: e.skippers[name]}
		if cp.Empty() {
			unsat = true
		}
		e.safeProbe(&p)
		plans = append(plans, p)
	}
	return plans, unsat, nil
}

// countOnly reports whether every accumulator is COUNT(*) (data-free).
func countOnly(accs []*aggAcc) bool {
	for _, a := range accs {
		if a.kind != CountStar {
			return false
		}
	}
	return true
}

// finishAggs materializes aggregate results from the accumulated state
// plus the final count.
func (e *Engine) finishAggs(res *Result, accs []*aggAcc) {
	for _, a := range accs {
		// COUNT(*) accumulators may have been bypassed by the fast count
		// path, which tracks res.Count directly.
		if a.kind == CountStar && a.rows == 0 {
			a.rows = int64(res.Count)
		}
		res.Aggs = append(res.Aggs, a.result())
	}
}

// execFastCount is the hot path: one predicate column, COUNT(*)-only.
// It scans candidate by candidate, so a candidate that asks for statistics
// is scanned whole and its statistics are exact; they are left on the plan
// for the feedback that follows a completed scan.
func (e *Engine) execFastCount(qc *qctx, p *colPlan, res *Result, accs []*aggAcc, n int) error {
	workers := e.opts.Parallelism
	if !p.active {
		// Full scan, no metadata.
		count, err := e.parallelCountFull(qc, p, n, workers)
		if err != nil {
			return err
		}
		res.Count = count
		res.Stats.scanned(n, p.col)
		return nil
	}
	count, zstats, stats, err := e.parallelCountZones(qc, p, p.res.Zones, workers)
	if err != nil {
		return err
	}
	res.Count = count
	res.Stats.scanned(stats.RowsScanned, p.col)
	res.Stats.RowsCovered += stats.RowsCovered
	p.stats = zstats
	return nil
}

// seg is one contiguous row window of the intersected candidate set.
// needEval has bit i set when plans[i]'s predicate must still be evaluated
// over the window (its metadata did not prove coverage).
type seg struct {
	lo, hi   int
	needEval uint64
}

// execGeneral handles every other query shape: multi-column conjunctions,
// aggregates over data, and projections. Kernel scans are chunked at
// checkpoint granularity; covered windows (no kernel work) get one
// free check per segment so even all-covered queries stay cancelable.
func (e *Engine) execGeneral(qc *qctx, plans []colPlan, res *Result, accs []*aggAcc, projCols []*storage.Column, grp *grouper, limit, n int) error {
	segs := []seg{{lo: 0, hi: n}}
	for i := range plans {
		segs = intersectPlan(segs, &plans[i], uint64(1)<<uint(i), n)
	}

	tk := &ticker{qc: qc}
	sel := bitvec.NewSelVec(1024)
	done := false
	for _, s := range segs {
		if done {
			break
		}
		if err := qc.check(0); err != nil {
			return err
		}
		if err := e.execSegment(qc, plans, res, accs, projCols, grp, limit, s, tk, sel, &done); err != nil {
			return err
		}
	}
	return nil
}

// execSegment runs one contiguous candidate window: covered fast paths
// when no predicate needs evaluation, otherwise filter + refine + consume.
func (e *Engine) execSegment(qc *qctx, plans []colPlan, res *Result, accs []*aggAcc, projCols []*storage.Column, grp *grouper, limit int, s seg, tk *ticker, sel *bitvec.SelVec, done *bool) error {
	if s.needEval == 0 {
		// Every row in the window qualifies. Count-only coverage reads
		// no data and stays checkpoint-free; grouping, aggregation, and
		// projection all read the covered rows, so they run in
		// checkpoint-sized chunks like any other scan.
		if grp != nil {
			res.Count += s.hi - s.lo
			res.Stats.RowsCovered += s.hi - s.lo
			for lo := s.lo; lo < s.hi; {
				end := lo + checkpointRows
				if end > s.hi {
					end = s.hi
				}
				grp.addWindow(lo, end)
				if err := tk.tick(end - lo); err != nil {
					return err
				}
				if err := qc.checkResult(len(grp.groups)); err != nil {
					return err
				}
				lo = end
			}
			return nil
		}
		if len(projCols) == 0 {
			res.Count += s.hi - s.lo
			res.Stats.RowsCovered += s.hi - s.lo
			for lo := s.lo; len(accs) > 0 && lo < s.hi; {
				end := lo + checkpointRows
				if end > s.hi {
					end = s.hi
				}
				for _, a := range accs {
					a.addWindow(lo, end)
				}
				if err := tk.tick(end - lo); err != nil {
					return err
				}
				lo = end
			}
			return nil
		}
		for row := s.lo; row < s.hi && !*done; row++ {
			if err := tk.tick(1); err != nil {
				return err
			}
			var err error
			if *done, err = e.emitRow(qc, res, accs, projCols, row, limit); err != nil {
				return err
			}
		}
		return nil
	}
	sel.Reset()
	matched, err := filterWindow(tk, plans, res, s, sel)
	if err != nil {
		return err
	}
	// The matched rows were already charged by the filter passes above;
	// the consumption loops below only need latency checkpoints
	// (qc.check(0)) so huge match sets stay cancelable.
	if grp != nil {
		res.Count += matched
		for rows := sel.Rows(); len(rows) > 0; {
			chunk := rows
			if len(chunk) > checkpointRows {
				chunk = chunk[:checkpointRows]
			}
			for _, row := range chunk {
				grp.addRow(int(row))
			}
			rows = rows[len(chunk):]
			if err := qc.check(0); err != nil {
				return err
			}
		}
		if err := qc.checkResult(len(grp.groups)); err != nil {
			return err
		}
		return nil
	}
	if len(projCols) == 0 {
		res.Count += matched
		for rows := sel.Rows(); len(rows) > 0; {
			chunk := rows
			if len(chunk) > checkpointRows {
				chunk = chunk[:checkpointRows]
			}
			for _, row := range chunk {
				for _, a := range accs {
					a.addRow(int(row))
				}
			}
			rows = rows[len(chunk):]
			if err := qc.check(0); err != nil {
				return err
			}
		}
		return nil
	}
	for i, row := range sel.Rows() {
		if i%checkpointRows == checkpointRows-1 {
			if err := qc.check(0); err != nil {
				return err
			}
		}
		var err error
		if *done, err = e.emitRow(qc, res, accs, projCols, int(row), limit); err != nil {
			return err
		}
		if *done {
			break
		}
	}
	return nil
}

// filterWindow appends the rows of window s that match every predicate the
// window still needs evaluated: the first such predicate filters the
// window into sel, the rest refine the selection. It returns the match
// count and charges the rows each pass read.
func filterWindow(tk *ticker, plans []colPlan, res *Result, s seg, sel *bitvec.SelVec) (matched int, err error) {
	first := true
	for i := range plans {
		if s.needEval&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		p := &plans[i]
		if first {
			if err := filterSegChunked(tk, p, s, sel); err != nil {
				return 0, err
			}
			matched = sel.Len()
			res.Stats.scanned(s.hi-s.lo, p.col)
			first = false
			continue
		}
		res.Stats.scanned(sel.Len(), p.col)
		if err := tk.tick(sel.Len()); err != nil {
			return 0, err
		}
		matched = refineSel(sel, p)
		if matched == 0 {
			break
		}
	}
	return matched, nil
}

// filterSegChunked runs the segment's first predicate filter in
// checkpoint-sized chunks, appending matches to sel.
func filterSegChunked(tk *ticker, p *colPlan, s seg, sel *bitvec.SelVec) error {
	for lo := s.lo; lo < s.hi; lo += checkpointRows {
		hi := lo + checkpointRows
		if hi > s.hi {
			hi = s.hi
		}
		if p.pred.NullOnly {
			scan.FilterNullSel(p.col.Nulls(), lo, hi, sel)
		} else {
			scan.Filter(p.col.Vec(), lo, hi, p.pred.R, p.col.Nulls(), 0, sel)
		}
		if err := tk.tick(hi - lo); err != nil {
			return err
		}
	}
	return nil
}

// emitRow appends one projected row; done reports the limit being hit,
// err a blown result budget.
func (e *Engine) emitRow(qc *qctx, res *Result, accs []*aggAcc, projCols []*storage.Column, row, limit int) (done bool, err error) {
	if err := qc.checkResult(len(res.Rows) + 1); err != nil {
		return true, err
	}
	vals := make([]storage.Value, len(projCols))
	for ci, col := range projCols {
		vals[ci] = col.Value(row)
	}
	res.Rows = append(res.Rows, vals)
	res.Count++
	for _, a := range accs {
		a.addRow(row)
	}
	return limit > 0 && len(res.Rows) >= limit, nil
}

// refineSel keeps only selected rows matching plan p's predicate; returns
// the surviving count.
func refineSel(sel *bitvec.SelVec, p *colPlan) int {
	if p.pred.NullOnly {
		return scan.RefineNullSel(p.col.Nulls(), sel)
	}
	return scan.Refine(p.col.Vec(), p.pred.R, p.col.Nulls(), sel)
}

// intersectPlan intersects the current segment list with one plan's
// candidate windows, OR-ing the plan's eval bit into windows it does not
// cover. Plans whose skipper declined contribute the full range,
// uncovered.
func intersectPlan(segs []seg, p *colPlan, bit uint64, n int) []seg {
	if !p.active {
		out := make([]seg, len(segs))
		for i, s := range segs {
			s.needEval |= bit
			out[i] = s
		}
		return out
	}
	var out []seg
	zi := 0
	zones := p.res.Zones
	for _, s := range segs {
		for zi < len(zones) && zones[zi].Hi <= s.lo {
			zi++
		}
		for zj := zi; zj < len(zones) && zones[zj].Lo < s.hi; zj++ {
			z := zones[zj]
			lo, hi := z.Lo, z.Hi
			if lo < s.lo {
				lo = s.lo
			}
			if hi > s.hi {
				hi = s.hi
			}
			if lo >= hi {
				continue
			}
			ns := seg{lo: lo, hi: hi, needEval: s.needEval}
			if !z.Covered {
				ns.needEval |= bit
			}
			out = append(out, ns)
		}
	}
	return out
}
