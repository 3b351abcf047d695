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
// these to report pruning behavior alongside wall-clock time. It is the
// one cost record (obs.Cost) the trace, the wire and the workload stats
// read.
type ExecStats = obs.Cost

// scanned charges s a kernel pass over rows rows of col.
func scanned(s *ExecStats, rows int, col *storage.Column) {
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
// returns ErrCanceled within one checkpoint interval. A skipper that
// panics is dropped and its column scanned in full; a scan that panics
// drops the active skippers and runs once more without them, on one
// goroutine. Either way the answer is the full scan's.
func (e *Engine) QueryContext(ctx context.Context, q Query) (*Result, error) {
	p, err := e.QueryPartial(ctx, q)
	if err != nil {
		return nil, err
	}
	return p.Finish(), nil
}

// QueryPartial is QueryContext stopped before the result is finished: a
// sharded table merges its shards' partials and finishes them once.
func (e *Engine) QueryPartial(ctx context.Context, q Query) (*Partial, error) {
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
		p, err := e.queryOnce(ctx, q, retried)
		if err == nil {
			return p, nil
		}
		if pe := (*panicError)(nil); !retried && errors.As(err, &pe) {
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
// actively pruning are dropped (their candidate windows are the prime
// suspect), and the caller retries once. The retry scans on the calling
// goroutine alone, so it takes neither a dropped skipper's windows nor a
// worker that panicked.
func (e *Engine) queryOnce(ctx context.Context, q Query, retry bool) (out *Partial, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var plans []colPlan
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, e.handleExecPanic(plans, &panicError{val: r, stack: debug.Stack()})
		}
	}()
	qc := e.newQctx(ctx)
	if retry {
		qc.workers = 1
	}
	tr := &obs.QueryTrace{Table: e.tbl.Name(), Start: time.Now(),
		Session:     obs.SessionFromContext(ctx),
		TraceID:     obs.TraceFromContext(ctx),
		Fingerprint: obs.TemplateFromContext(ctx),
		PlanCached:  obs.PlanCachedFromContext(ctx)}
	e.trace = tr
	defer func() { e.trace = nil }()
	e.syncSkippers()
	n := e.tbl.NumRows()
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	out = &Partial{res: Result{Columns: b.columns, Types: b.types}, limit: q.Limit,
		grouped: b.grp != nil, projecting: len(b.projCols) > 0, ordered: b.orderCol != nil, desc: q.OrderDesc}
	res := &out.res

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
	tr.Probe = time.Since(tProbe)
	e.tracePredicates(tr, plans, &res.Stats)

	tScan := time.Now()
	switch {
	case unsat:
		// A contradiction (or empty interval) on some column: no rows can
		// match. Skippers still observe a zero-work query.
	case b.grp == nil && len(plans) == 1 && len(b.projCols) == 0 && countOnly(b.accs):
		err = e.execFastCount(qc, &plans[0], res, n)
		for i := range b.accs {
			b.accs[i].rows = int64(res.Count) // the fast path folds no rows into them
		}
	default:
		err = e.execWindows(qc, plans, out, &b, n)
	}
	if err != nil {
		// A worker panic surfaces here as an error (recovered in its own
		// goroutine — panics cannot cross goroutines); treat it like an
		// in-line panic: drop the active skippers.
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
	if b.grp != nil {
		out.groups = b.grp.sorted(q.Limit)
	}
	for i := range b.accs {
		b.accs[i].decode()
	}
	out.aggs = b.accs
	e.finishTrace(res, tr, plans, n, q.Limit)
	return out, nil
}

// binding is a query's output resolved against the table: its
// accumulators (ungrouped) or its grouper, its projected and order columns.
type binding struct {
	accs     []aggAcc
	grp      *grouper
	projCols []*storage.Column
	columns  []string // the result's column names and types
	types    []storage.Type
	orderCol *storage.Column
	desc     bool
}

// bind checks q's predicates and resolves everything else it names. It is
// the one place a query's shape is checked: Explain calls it too, so EXPLAIN
// rejects exactly what execution rejects. Caller holds e.mu.
func (e *Engine) bind(q Query) (binding, error) {
	if err := q.Where.Validate(); err != nil {
		return binding{}, err
	}
	b := binding{desc: q.OrderDesc}
	aggCols := make([]*storage.Column, len(q.Aggs))
	for i, a := range q.Aggs {
		col, err := e.validateAgg(a)
		if err != nil {
			return binding{}, err
		}
		aggCols[i] = col
	}
	if q.GroupBy != "" {
		gcol, err := e.readColumn(q.GroupBy)
		if err != nil {
			return binding{}, err
		}
		for _, name := range q.Select {
			if name != q.GroupBy {
				return binding{}, fmt.Errorf("engine: column %q in select list is not the GROUP BY column", name)
			}
		}
		b.grp = newGrouper(gcol, q.Aggs, aggCols)
		b.columns = append(b.columns, gcol.Name())
		b.types = append(b.types, gcol.Type())
		for i, a := range q.Aggs {
			b.columns = append(b.columns, a.String())
			acc := newAggAcc(a.Kind, aggCols[i])
			b.types = append(b.types, acc.resultType())
		}
	} else {
		b.accs = make([]aggAcc, len(q.Aggs))
		for i, a := range q.Aggs {
			b.accs[i] = newAggAcc(a.Kind, aggCols[i])
		}
		for _, name := range q.Select {
			col, err := e.readColumn(name)
			if err != nil {
				return binding{}, err
			}
			b.projCols = append(b.projCols, col)
			b.columns = append(b.columns, name)
			b.types = append(b.types, col.Type())
		}
	}
	if q.OrderBy != "" {
		if b.grp != nil {
			return binding{}, fmt.Errorf("engine: ORDER BY with GROUP BY is unsupported (groups come back in key order)")
		}
		if len(b.projCols) == 0 {
			return binding{}, fmt.Errorf("engine: ORDER BY requires a projection")
		}
		var err error
		if b.orderCol, err = e.readColumn(q.OrderBy); err != nil {
			return binding{}, err
		}
	}
	return b, nil
}

// handleExecPanic records a recovered execution panic: every skipper that
// was actively pruning for the query is dropped (corrupt metadata is the
// prime suspect for out-of-range candidate windows), so the one retry
// QueryPartial makes runs without them, as full scans. Caller holds e.mu.
func (e *Engine) handleExecPanic(plans []colPlan, pe *panicError) error {
	e.m.panics.Inc()
	quarantined := 0
	for i := range plans {
		if plans[i].active && plans[i].skipper != nil {
			e.quarantineLocked(plans[i].name, pe)
			quarantined++
		}
	}
	return fmt.Errorf("engine: execution panicked (quarantined %d skipper(s)): %w", quarantined, pe)
}

// probe probes a plan's skipper for candidate windows. A probe that
// panics drops the skipper, and the column runs as a plain full scan.
// Caller holds e.mu.
func (e *Engine) probe(p *colPlan) {
	if p.skipper == nil {
		return
	}
	if e.guard(p.name, func() error {
		if p.pred.NullOnly {
			p.res = p.skipper.PruneNulls()
		} else {
			p.res = p.skipper.Prune(p.pred.R)
		}
		return nil
	}) != nil {
		p.skipper, p.res = nil, core.PruneResult{}
	}
	p.active = p.res.Enabled
}

// observe hands a plan's probe result back to its skipper. An Observe
// that panics drops the skipper: the query's result is already computed,
// so only the metadata is at stake. Caller holds e.mu.
func (e *Engine) observe(p *colPlan) {
	if p.skipper == nil {
		return
	}
	if e.guard(p.name, func() error {
		p.skipper.Observe(p.res)
		return nil
	}) != nil {
		p.skipper = nil
	}
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
		e.probe(&p)
		plans = append(plans, p)
	}
	return plans, unsat, nil
}

// countOnly reports whether every accumulator is COUNT(*) (data-free).
func countOnly(accs []aggAcc) bool {
	for _, a := range accs {
		if a.kind != CountStar {
			return false
		}
	}
	return true
}

// execFastCount is the hot path: one predicate column, COUNT(*)-only.
// A declined or disabled skipper's full scan is one plain candidate.
func (e *Engine) execFastCount(qc *qctx, p *colPlan, res *Result, n int) error {
	zones := p.res.Zones
	if !p.active {
		zones = []core.CandidateZone{{Lo: 0, Hi: n}}
	}
	w := e.parallelCountZones(qc, p, zones, qc.workers)
	if w.err != nil {
		return w.err
	}
	res.Count = w.count
	scanned(&res.Stats, w.stats.RowsScanned, p.col)
	res.Stats.RowsCovered += w.stats.RowsCovered
	return nil
}

// seg is one contiguous row window of the intersected candidate set.
// needEval has bit i set when plans[i]'s predicate must still be evaluated
// over the window (its metadata did not prove coverage).
type seg struct {
	lo, hi   int
	needEval uint64
}

// windowRows is how many rows of a candidate window execWindows takes at a
// time: the selection vector between the filter kernels and the consumers
// never outgrows its first allocation, and the kernels' per-call cost is
// still spread over a thousand rows. The ticker checkpoints every
// checkpointRows rows regardless.
const windowRows = 1024

// execWindows runs every query but the fast COUNT: multi-column
// conjunctions, aggregates over data, GROUP BY, and projections, ordered or
// not. It intersects the plans' candidates and walks them windowRows rows at
// a time, ticking once per window; a window the metadata did not cover is
// filtered into one reused selection vector. The window's matches then fold
// into the groups, into the aggregates, into the top-L selection (ORDER BY),
// or into a keep list in row order that stops at LIMIT (an unordered
// projection). The rows a projection retains are materialized at the end.
//
// An ORDER BY whose matches only the top-L selection consumes tests each
// window, once the heap is full, against the cut before filtering it: a
// window whose order codes cannot reach it (see topL.outside) is neither
// filtered nor offered. The min/max kernel did read its order codes, so
// it charges them to RowsScanned and BytesScanned, at the order column's
// width, and to the ticker, and a covered one to RowsCovered as before:
// Limits.MaxRowsScanned still bounds the work.
//
// Aggregates see every match, whatever the result shape. An unordered
// projection without aggregates stops at LIMIT: once the keep list is full,
// the rest of its candidate segment is still filtered, so RowsScanned
// charges whole segments; later segments are not read. A covered window
// whose only consumers are aggregates is handed to them whole, and
// COUNT(*)-only coverage reads nothing and is not ticked.
func (e *Engine) execWindows(qc *qctx, plans []colPlan, p *Partial, b *binding, n int) error {
	res, limit := &p.res, p.limit
	segs := []seg{{lo: 0, hi: n}}
	for i := range plans {
		segs = intersectPlan(segs, &plans[i], uint64(1)<<uint(i), n)
	}
	projecting := len(b.projCols) > 0
	readsRows := projecting || b.grp != nil
	var top *topL
	if b.orderCol != nil {
		top = newTopL(b.orderCol, b.desc, limit)
	}
	// cut: only the top-L selection consumes the matches, so a window
	// whose order codes cannot reach a full heap's cut need not be
	// filtered.
	cut := top != nil && projecting && b.grp == nil && len(b.accs) == 0
	var keep []uint32 // an unordered projection's rows
	full := func() bool {
		return projecting && top == nil && len(b.accs) == 0 && limit > 0 && len(keep) == limit
	}

	tk := &ticker{qc: qc}
	sel := bitvec.NewSelVec(windowRows)
	for _, s := range segs {
		if full() {
			break
		}
		if err := qc.check(0); err != nil {
			return err
		}
		for w := s; w.lo < s.hi; w.lo = w.hi {
			w.hi = min(w.lo+windowRows, s.hi)
			covered := w.needEval == 0
			matched, read := w.hi-w.lo, w.hi-w.lo
			sel.Reset()
			if cut && top.threshold && top.outside(w.lo, w.hi) {
				if covered {
					res.Stats.RowsCovered += matched
				}
				scanned(&res.Stats, read, b.orderCol)
				if err := tk.tick(read); err != nil {
					return err
				}
				continue
			}
			if covered {
				if full() {
					break
				}
				res.Stats.RowsCovered += matched
				if !readsRows && len(b.accs) == 0 {
					res.Count += matched
					continue
				}
				if readsRows {
					sel.AppendRange(uint32(w.lo), uint32(w.hi))
				}
			} else {
				matched, read = filterWindow(plans, res, w, sel)
			}
			if err := tk.tick(read); err != nil {
				return err
			}
			if !projecting {
				res.Count += matched
			}
			rows := sel.Rows()
			var err error
			switch {
			case b.grp != nil:
				for _, r := range rows {
					b.grp.addRow(int(r))
				}
				err = qc.checkResult(len(b.grp.groups))
			case top != nil:
				top.offer(rows)
				err = qc.checkResult(top.retained())
			case projecting:
				kept := rows
				if limit > 0 {
					kept = rows[:min(len(rows), limit-len(keep))]
				}
				keep = append(keep, kept...)
				err = qc.checkResult(len(keep))
			}
			if err != nil {
				return err
			}
			for i := range b.accs {
				if covered {
					b.accs[i].addWindow(w.lo, w.hi)
					continue
				}
				for _, r := range rows {
					b.accs[i].addRow(int(r))
				}
			}
		}
	}
	if !projecting {
		return nil
	}
	if top != nil {
		keep = top.rows()
	}
	return p.materialize(qc, b, keep)
}

// materialize fills the partial with the projected cells of rows, in
// order, and an ORDER BY's order value of each: the rows are known, so one
// backing array holds all their values.
func (p *Partial) materialize(qc *qctx, b *binding, rows []uint32) error {
	res, width := &p.res, len(b.projCols)
	if len(rows) > 0 {
		res.Rows = make([][]storage.Value, len(rows))
	}
	cells, keys := len(rows)*width, 0
	if b.orderCol != nil {
		keys = len(rows)
	}
	slab := make([]storage.Value, cells+keys)
	if keys > 0 {
		p.keys, slab = slab[cells:], slab[:cells]
	}
	for lo := 0; lo < len(rows); lo += checkpointRows {
		if lo > 0 {
			if err := qc.check(0); err != nil {
				return err
			}
		}
		chunk := rows[lo:min(lo+checkpointRows, len(rows))]
		for ci, col := range b.projCols {
			col.Values(slab[lo*width+ci:], width, chunk)
		}
		if b.orderCol != nil {
			b.orderCol.Values(p.keys[lo:], 1, chunk)
		}
	}
	for i := range res.Rows {
		res.Rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	res.Count = len(res.Rows)
	return nil
}

// filterWindow appends the rows of window w that match every predicate the
// window still needs evaluated: the first such predicate filters the
// window into sel, the rest refine the selection. It returns the match
// count and the rows the passes read, which it charges to res.
func filterWindow(plans []colPlan, res *Result, w seg, sel *bitvec.SelVec) (matched, read int) {
	first := true
	for i := range plans {
		if w.needEval&(uint64(1)<<uint(i)) == 0 {
			continue
		}
		p := &plans[i]
		if first {
			if p.pred.NullOnly {
				scan.FilterNullSel(p.col.Nulls(), w.lo, w.hi, sel)
			} else {
				scan.Filter(p.col.Vec(), w.lo, w.hi, p.pred.R, p.col.Nulls(), 0, sel)
			}
			read = w.hi - w.lo
			scanned(&res.Stats, w.hi-w.lo, p.col)
			first = false
		} else {
			read += sel.Len()
			scanned(&res.Stats, sel.Len(), p.col)
			refineSel(sel, p)
		}
		if matched = sel.Len(); matched == 0 {
			break
		}
	}
	return matched, read
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
			lo, hi := max(z.Lo, s.lo), min(z.Hi, s.hi)
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
