package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
)

// Resilience layer: cooperative cancellation, per-query resource budgets,
// panic isolation, and dropping a faulty skipper. The design constraint is
// that the hot scan loop stays branch-free: kernels run in
// checkpointRows-sized chunks and all checking happens between chunks, so
// a 4M-row scan pays ~64 cheap checks rather than 4M.

// Errors returned by the resilience layer.
var (
	// ErrCanceled reports that the query's context was canceled or its
	// deadline expired before execution finished.
	ErrCanceled = errors.New("engine: query canceled")
	// ErrBudget reports that the query exceeded one of its resource
	// limits (rows scanned, result rows, or wall-clock duration).
	ErrBudget = errors.New("engine: query exceeded resource budget")
)

// Limits bounds one query's resource consumption. The zero value imposes
// no limits. Limits are enforced at cooperative checkpoints, so overshoot
// is bounded by one checkpoint interval (checkpointRows rows).
type Limits struct {
	// MaxRowsScanned caps rows whose codes a kernel reads. Rows pruned by
	// metadata are free — budgets reward skipping.
	MaxRowsScanned int64
	// MaxResultRows caps materialized result rows (projection rows, or
	// groups for GROUP BY).
	MaxResultRows int
	// MaxDuration caps wall-clock execution time, independent of any
	// context deadline.
	MaxDuration time.Duration
}

// checkpointRows is the cooperative checkpoint interval: scans check for
// cancellation and budget exhaustion at least once per this many rows.
const checkpointRows = 1 << 16

// qctx carries one query's cancellation and budget state. It is shared by
// every goroutine working on the query; the first failure latches so all
// peers abandon their slices promptly.
type qctx struct {
	ctx       context.Context
	done      <-chan struct{}
	deadline  time.Time // from Limits.MaxDuration; zero = none
	maxRows   int64     // from Limits.MaxRowsScanned; 0 = none
	maxResult int       // from Limits.MaxResultRows; 0 = none
	workers   int       // goroutines the COUNT driver scans with: Options.Parallelism, 1 on a retry
	rows      atomic.Int64
	failure   atomic.Pointer[error]
}

// newQctx builds the per-query checkpoint state from ctx and the engine's
// configured limits.
func (e *Engine) newQctx(ctx context.Context) *qctx {
	lim := e.opts.Limits
	qc := &qctx{
		ctx:       ctx,
		done:      ctx.Done(),
		maxRows:   lim.MaxRowsScanned,
		maxResult: lim.MaxResultRows,
		workers:   e.opts.Parallelism,
	}
	if lim.MaxDuration > 0 {
		qc.deadline = time.Now().Add(lim.MaxDuration)
	}
	return qc
}

// fail latches the first failure and returns the winning error.
func (qc *qctx) fail(err error) error {
	qc.failure.CompareAndSwap(nil, &err)
	return *qc.failure.Load()
}

// failed returns the latched failure, if any.
func (qc *qctx) failed() error {
	if p := qc.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// check performs one cooperative checkpoint, charging rows scanned since
// the previous one against the row budget.
func (qc *qctx) check(rows int64) error {
	if err := qc.failed(); err != nil {
		return err
	}
	faultinject.Sleep(faultinject.ScanDelay) // no-op unless chaos is active
	if qc.maxRows > 0 && qc.rows.Add(rows) > qc.maxRows {
		return qc.fail(fmt.Errorf("%w: more than %d rows scanned", ErrBudget, qc.maxRows))
	}
	select {
	case <-qc.done:
		return qc.fail(fmt.Errorf("%w: %v", ErrCanceled, context.Cause(qc.ctx)))
	default:
	}
	if !qc.deadline.IsZero() && time.Now().After(qc.deadline) {
		return qc.fail(fmt.Errorf("%w: ran longer than the configured MaxDuration", ErrBudget))
	}
	return nil
}

// checkResult enforces the result-row budget against the current
// materialized size.
func (qc *qctx) checkResult(rows int) error {
	if qc.maxResult > 0 && rows > qc.maxResult {
		return qc.fail(fmt.Errorf("%w: result exceeds %d rows", ErrBudget, qc.maxResult))
	}
	return nil
}

// ticker accumulates one goroutine's scan progress and runs the shared
// checkpoint every checkpointRows rows, keeping the per-chunk cost to one
// integer add and compare.
type ticker struct {
	qc  *qctx
	acc int
}

// tick charges rows of scan progress; at checkpoint granularity it runs
// the shared check and returns its verdict.
func (t *ticker) tick(rows int) error {
	t.acc += rows
	if t.acc < checkpointRows {
		return nil
	}
	n := t.acc
	t.acc = 0
	return t.qc.check(int64(n))
}

// countChunks runs a counting kernel over [lo, hi) in checkpoint-sized
// chunks, ticking between chunks.
func countChunks(tk *ticker, lo, hi int, kernel func(lo, hi int) int) (int, error) {
	total := 0
	for lo < hi {
		end := lo + checkpointRows
		if end > hi {
			end = hi
		}
		total += kernel(lo, end)
		if err := tk.tick(end - lo); err != nil {
			return total, err
		}
		lo = end
	}
	return total, nil
}

// panicError is a panic recovered into an error, carrying the stack for
// diagnostics. It unwraps to the panic value when that is an error, so a
// skipper's own fault (adaptive.ErrCorrupt) stays visible through it.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("recovered panic: %v", p.val) }

func (p *panicError) Unwrap() error {
	err, _ := p.val.(error)
	return err
}

// recoverToError converts an in-flight panic into *errp. Use as
// `defer recoverToError(&err)` at goroutine or call-boundary scope —
// panics cannot cross goroutines, so every worker must carry its own.
func recoverToError(errp *error) {
	if r := recover(); r != nil {
		*errp = &panicError{val: r, stack: debug.Stack()}
	}
}

// firstWorkerError picks the error to surface from a fan-out: panics win
// (they trigger quarantine) over cooperative cancellation.
func firstWorkerError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var pe *panicError
		if errors.As(err, &pe) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// guard runs call, a call into column col's skipper, under recover: the
// one handler of skipper faults. A skipper reports a fault by panicking
// (core.Skipper); call may also return one it found (VerifySkipping's
// CheckInvariants). Either way the skipper is dropped and guard returns
// the fault. call must not escape, so the closures passed here stay on
// the stack. Caller holds e.mu.
func (e *Engine) guard(col string, call func() error) (fault error) {
	defer func() {
		if fault != nil {
			e.quarantineLocked(col, fault)
		}
	}()
	defer recoverToError(&fault)
	return call()
}

// quarantineLocked drops a column's skipper after a fault. The column's
// queries fall back to full scans — skipping is strictly an optimization,
// so correctness is preserved — until EnableSkipping builds a fresh one.
// The drop writes one quarantine record to the ledger, with cause
// "corruption" when the skipper detected the fault itself (ErrCorrupt, or
// a failed CheckInvariants) and "panic" otherwise, counts it in
// adskip_skipper_quarantines_total and logs the fault at Error.
// Caller holds e.mu.
func (e *Engine) quarantineLocked(col string, fault error) {
	s, ok := e.skippers[col]
	if !ok {
		return
	}
	delete(e.skippers, col)
	e.m.quarantines.Inc()
	cause := "corruption"
	var pe *panicError
	if errors.As(fault, &pe) && !errors.Is(fault, adaptive.ErrCorrupt) {
		cause = "panic"
	}
	e.journal(col)(obs.LedgerRecord{Kind: obs.EventQuarantine, Cause: cause, ZonesBefore: s.Metadata().Zones})
	if e.log != nil {
		e.log.Error("skipper quarantined: column falls back to full scans",
			"table", e.tbl.Name(), "column", col, "cause", fault.Error())
	}
}

// VerifySkipping revalidates each named column's metadata (all skipping
// columns when none are named) against the column's physical state — one
// O(rows) pass per column. Failing columns' skippers are dropped through
// guard; their failures are joined in the returned error.
func (e *Engine) VerifySkipping(cols ...string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(cols) == 0 {
		for col := range e.skippers {
			cols = append(cols, col)
		}
		sort.Strings(cols)
	}
	var errs []error
	for _, name := range cols {
		s, ok := e.skippers[name]
		if !ok {
			continue
		}
		col, err := e.tbl.Column(name)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := e.guard(name, func() error {
			rows := s.Rows()
			if rows > col.Len() {
				return fmt.Errorf("metadata covers %d rows, column has %d", rows, col.Len())
			}
			return s.CheckInvariants(col.Vec().Slice(0, rows), col.Nulls(), false)
		}); err != nil {
			errs = append(errs, fmt.Errorf("column %q: %w", name, err))
		}
	}
	return errors.Join(errs...)
}
