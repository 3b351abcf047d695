package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/faultinject"
	"adskip/internal/obs"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// buildIntTable builds an n-row single-int-column table fast (no RNG, no
// strings) for scan-scale cancellation tests.
func buildIntTable(t testing.TB, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("big", table.Schema{{Name: "v", Type: storage.Int64}})
	col, err := tb.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := col.AppendInt(int64(i % 4096)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func countQuery(col string) Query {
	return Query{
		Where: expr.And(intPred(col, expr.Between, 10, 2000)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
}

func TestQueryContextPreCanceled(t *testing.T) {
	tb := buildTable(t, 500, 3)
	e := newEngine(t, tb, PolicyAdaptive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, countQuery("a"))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
}

// TestCancelMidScan4M verifies the tentpole acceptance: an expired context
// stops a 4M-row scan at a cooperative checkpoint instead of running to
// completion. ScanDelay stretches each checkpoint so the full scan would
// take ~60 checkpoints x 2ms; the 10ms deadline must cut it far short.
func TestCancelMidScan4M(t *testing.T) {
	n := 1 << 22
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyNone})

	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, countQuery("v"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	// 64 checkpoints x 2ms = 128ms uncancelled; generous CI margin still
	// proves it stopped at a checkpoint, not at scan end.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want well under the full-scan time", elapsed)
	}
	// The checkpoint machinery must not have corrupted anything: the same
	// query without a deadline returns the exact count.
	res, err := e.Query(countQuery("v"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if v := int64(i % 4096); v >= 10 && v <= 2000 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
}

// TestCancelCoveredAggregate regresses the covered-window gap: a SUM over
// fully covered zones reads every row even though the count is free, so
// it must still hit checkpoints and honor a mid-scan deadline.
func TestCancelCoveredAggregate(t *testing.T) {
	n := 1 << 21
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyStatic, ZoneSize: 4096})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()

	// v >= 0 covers every zone; SUM forces the covered windows to be read.
	q := Query{
		Where: expr.And(intPred("v", expr.GE, 0)),
		Aggs:  []Agg{{Kind: Sum, Col: "v"}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryContext(ctx, q)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("covered-aggregate cancellation took %v", elapsed)
	}

	// Covered aggregate rows also count against the row budget.
	lim := New(tb, Options{Policy: PolicyStatic, ZoneSize: 4096,
		Limits: Limits{MaxRowsScanned: 200_000}})
	if err := lim.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	restore2 := faultinject.Activate(faultinject.New(7)) // no delays
	defer restore2()
	if _, err := lim.Query(q); !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget for covered aggregate", err)
	}
}

func TestLimitsMaxRowsScanned(t *testing.T) {
	n := 1 << 20
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxRowsScanned: 200_000}})
	_, err := e.Query(countQuery("v"))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}

	// A query whose scan fits the budget still runs.
	free := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxRowsScanned: int64(n) + checkpointRows}})
	if _, err := free.Query(countQuery("v")); err != nil {
		t.Fatalf("within-budget query failed: %v", err)
	}
}

func TestLimitsMaxDuration(t *testing.T) {
	tb := buildIntTable(t, 1<<20)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxDuration: time.Millisecond}})
	restore := faultinject.Activate(faultinject.New(7).
		Set(faultinject.ScanDelay, faultinject.Rule{Every: 1, Delay: 2 * time.Millisecond}))
	defer restore()
	_, err := e.Query(countQuery("v"))
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
}

func TestLimitsMaxResultRows(t *testing.T) {
	tb := buildTable(t, 2000, 5)
	e := New(tb, Options{Policy: PolicyNone, Limits: Limits{MaxResultRows: 50}})
	q := Query{Where: expr.And(intPred("a", expr.GE, 0)), Select: []string{"a", "b"}}
	_, err := e.Query(q)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err=%v, want ErrBudget", err)
	}
	// An explicit LIMIT under the cap stays within budget.
	q.Limit = 50
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("limited query failed: %v", err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows=%d want 50", len(res.Rows))
	}

	// The ordered twin: the cap applies to the rows ORDER BY retains, not to
	// the 2000 matches it reads. Without a LIMIT it retains every match.
	q = Query{Where: expr.And(intPred("a", expr.GE, 0)), Select: []string{"a", "b"}, OrderBy: "b", OrderDesc: true}
	if _, err := e.Query(q); !errors.Is(err, ErrBudget) {
		t.Fatalf("ordered, no limit: err=%v, want ErrBudget", err)
	}
	q.Limit = 50
	if res, err = e.Query(q); err != nil {
		t.Fatalf("ordered LIMIT 50 under a cap of 50 over 2000 matches: %v", err)
	}
	if len(res.Rows) != 50 || res.Count != 50 {
		t.Fatalf("ordered rows=%d count=%d want 50", len(res.Rows), res.Count)
	}
	q.Limit = 51
	if _, err := e.Query(q); !errors.Is(err, ErrBudget) {
		t.Fatalf("ordered LIMIT 51 over the cap: err=%v, want ErrBudget", err)
	}
}

// faultySkipper lets tests fail specific skipper entry points, and counts
// the feedback it receives.
type faultySkipper struct {
	rows          int
	panicProbe    bool // Prune and PruneNulls panic
	panicObs      bool
	panicExtend   bool
	badWindows    bool // emit candidate windows beyond the column end
	badInvariants bool // CheckInvariants fails

	observed int // Observe calls
}

func (f *faultySkipper) Prune(expr.Ranges) core.PruneResult {
	if f.panicProbe {
		panic("faultySkipper: probe panic")
	}
	if f.badWindows {
		return core.PruneResult{Enabled: true, Zones: []core.CandidateZone{
			{Lo: 0, Hi: f.rows * 4}, // way out of range
		}}
	}
	return core.PruneResult{Enabled: true, Zones: []core.CandidateZone{{Lo: 0, Hi: f.rows}}}
}

func (f *faultySkipper) PruneNulls() core.PruneResult {
	if f.panicProbe {
		panic("faultySkipper: probe panic")
	}
	return core.PruneResult{Enabled: false}
}

func (f *faultySkipper) Observe(core.PruneResult) {
	f.observed++
	if f.panicObs {
		panic("faultySkipper: observe panic")
	}
}

func (f *faultySkipper) Extend(codes storage.Vec, _ *bitvec.BitVec) {
	if f.panicExtend {
		panic("faultySkipper: extend panic")
	}
	f.rows = codes.Len()
}

func (f *faultySkipper) Rows() int { return f.rows }
func (f *faultySkipper) Metadata() core.Metadata {
	return core.Metadata{Kind: "faulty", Zones: 1, Enabled: true}
}

func (f *faultySkipper) CheckInvariants(storage.Vec, *bitvec.BitVec) error {
	if f.badInvariants {
		return errors.New("faultySkipper: bounds exclude a row")
	}
	return nil
}

func (f *faultySkipper) SetJournal(func(obs.LedgerRecord))       {}
func (f *faultySkipper) Introspect() (obs.SkipperSnapshot, bool) { return obs.SkipperSnapshot{}, false }

// install registers a faulty skipper on column "a" behind the engine's
// back (tests only).
func installFaulty(e *Engine, f *faultySkipper) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.rows = e.tbl.NumRows()
	e.skippers["a"] = f
}

func quarantineEvents(e *Engine) int {
	count := 0
	for _, ev := range e.Ledger().Records() {
		if ev.Kind == obs.EventQuarantine {
			count++
		}
	}
	return count
}

func naiveCountA(t *testing.T, tb *table.Table, lo, hi int64) int {
	t.Helper()
	col, err := tb.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			continue
		}
		if v := col.Value(i).Int(); v >= lo && v <= hi {
			want++
		}
	}
	return want
}

// TestSkipperFaultDropsSkipper drives a fault through every call the
// engine makes into a skipper — Prune, PruneNulls, Observe, Extend (an
// append, then a query), candidate windows the scan
// cannot read at Parallelism 1 and 4, a failing CheckInvariants under
// VerifySkipping, and a real adaptive zonemap whose layout an injected
// InvariantFlip broke — and checks the one outcome: the answer is the
// no-skipping reference's, the column's skipper is gone, exactly one
// quarantine record names the right cause, adskip_skipper_quarantines_total
// rises by one, and EnableSkipping brings a skipper back that answers
// correctly.
func TestSkipperFaultDropsSkipper(t *testing.T) {
	count := []Agg{{Kind: CountStar}}
	inA := countQuery("a")
	isNull := Query{Where: expr.And(expr.MustPred("a", expr.IsNull)), Aggs: count}
	query := func(q Query) func(*testing.T, *Engine) {
		return func(t *testing.T, e *Engine) {
			if _, err := e.Query(q); err != nil {
				t.Fatalf("the faulting query failed: %v", err)
			}
		}
	}
	cases := []struct {
		name        string
		parallelism int
		faulty      *faultySkipper // nil: the engine's own adaptive zonemap
		fault       func(*testing.T, *Engine)
		q           Query // checked against the reference after the fault
		cause       string
	}{
		{"Prune", 1, &faultySkipper{panicProbe: true}, query(inA), inA, "panic"},
		{"PruneNulls", 1, &faultySkipper{panicProbe: true}, query(isNull), isNull, "panic"},
		{"Observe", 1, &faultySkipper{panicObs: true}, query(inA), inA, "panic"},
		{"Extend", 1, &faultySkipper{panicExtend: true}, func(t *testing.T, e *Engine) {
			if err := e.AppendRow(storage.IntValue(500), storage.IntValue(1),
				storage.FloatValue(1), storage.StringValue("ant")); err != nil {
				t.Fatal(err)
			}
		}, inA, "panic"},
		{"bad windows at P=1", 1, &faultySkipper{badWindows: true}, query(inA), inA, "panic"},
		{"bad windows at P=4", 4, &faultySkipper{badWindows: true}, query(inA), inA, "panic"},
		{"CheckInvariants", 1, &faultySkipper{badInvariants: true}, func(t *testing.T, e *Engine) {
			if err := e.VerifySkipping(); err == nil || !strings.Contains(err.Error(), "bounds exclude a row") {
				t.Fatalf("VerifySkipping = %v, want the failed check", err)
			}
		}, inA, "corruption"},
		{"broken adaptive layout", 1, nil, func(t *testing.T, e *Engine) {
			restore := faultinject.Activate(faultinject.New(5).
				Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
			defer restore()
			query(inA)(t, e) // Observe breaks the layout; the next probe panics
		}, inA, "corruption"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The bad window spans four times the rows, enough for the
			// parallel count to fan out across workers.
			tb := buildTable(t, minRowsPerWorker/2+1000, 31)
			e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts, Parallelism: c.parallelism})
			if err := e.EnableSkipping("a"); err != nil {
				t.Fatal(err)
			}
			if c.faulty != nil {
				installFaulty(e, c.faulty)
			}
			reference := New(tb, Options{Policy: PolicyNone})
			check := func(stage string) {
				t.Helper()
				got, err := e.Query(c.q)
				if err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				want, err := reference.Query(c.q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count {
					t.Fatalf("%s: count=%d, reference %d", stage, got.Count, want.Count)
				}
			}
			before := e.m.quarantines.Load()

			c.fault(t, e)
			check("after the fault")
			if e.Skipper("a") != nil {
				t.Fatal("the faulty skipper is still installed")
			}
			var causes []string
			for _, r := range e.Ledger().Records() {
				if r.Kind == obs.EventQuarantine {
					causes = append(causes, r.Column+":"+r.Cause)
				}
			}
			if len(causes) != 1 || causes[0] != "a:"+c.cause {
				t.Fatalf("quarantine records %v, want exactly [a:%s]", causes, c.cause)
			}
			if got := e.m.quarantines.Load() - before; got != 1 {
				t.Fatalf("adskip_skipper_quarantines_total rose by %d, want 1", got)
			}

			if err := e.EnableSkipping("a"); err != nil {
				t.Fatal(err)
			}
			if e.Skipper("a") == nil {
				t.Fatal("EnableSkipping built no skipper")
			}
			check("after EnableSkipping")
		})
	}
}

// TestObserveOncePerCompletedQuery: every executor shape hands feedback to
// a skipper exactly once, after its scan completed, and a query that fails
// hands none.
func TestObserveOncePerCompletedQuery(t *testing.T) {
	const rows = 1500
	tb := buildTable(t, rows, 21)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts})
	f := &faultySkipper{}
	installFaulty(e, f)

	inA := intPred("a", expr.Between, 10, 1200)
	count := []Agg{{Kind: CountStar}}
	cases := []struct {
		name string
		q    Query
	}{
		{"fast COUNT", Query{Where: expr.And(inA), Aggs: count}},
		{"SUM", Query{Where: expr.And(inA), Aggs: []Agg{{Kind: Sum, Col: "b"}}}},
		{"projection LIMIT", Query{Where: expr.And(inA), Select: []string{"a", "s"}, Limit: 5}},
		{"ORDER BY LIMIT", Query{Where: expr.And(inA), Select: []string{"a"}, OrderBy: "b", OrderDesc: true, Limit: 3}},
		{"GROUP BY", Query{Where: expr.And(inA), Aggs: count, GroupBy: "s"}},
		{"unsatisfiable", Query{Where: expr.And(intPred("a", expr.GT, 10), intPred("a", expr.LT, 5)), Aggs: count}},
		{"IS NULL", Query{Where: expr.And(expr.MustPred("a", expr.IsNull)), Aggs: count}},
		{"two columns", Query{Where: expr.And(inA, intPred("b", expr.Between, 100, 600)), Aggs: count}},
	}
	for _, c := range cases {
		before := f.observed
		if _, err := e.Query(c.q); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := f.observed - before; got != 1 {
			t.Errorf("%s: Observe ran %d times, want 1", c.name, got)
		}
	}
	if e.Skipper("a") != f {
		t.Fatal("a counting skipper was dropped")
	}

	// Over the row budget, on the fast and the ordered path: no feedback.
	tb = buildTable(t, 2*checkpointRows, 22)
	e = New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts,
		Limits: Limits{MaxRowsScanned: checkpointRows}})
	f = &faultySkipper{}
	installFaulty(e, f)
	wide := intPred("a", expr.Between, 0, 2*checkpointRows)
	for _, q := range []Query{
		{Where: expr.And(wide), Aggs: count},
		{Where: expr.And(wide), Select: []string{"a"}, OrderBy: "b", Limit: 3},
	} {
		if _, err := e.Query(q); !errors.Is(err, ErrBudget) {
			t.Fatalf("err=%v, want ErrBudget", err)
		}
	}
	if f.observed != 0 {
		t.Fatalf("queries that failed their budget ran Observe %d times, want 0", f.observed)
	}
}

// TestBadWindowsPanicRetries exercises the full quarantine-and-retry path:
// corrupt metadata emits candidate windows past the column end, the scan
// kernel panics on the out-of-range access, the engine recovers, benches
// the skipper, retries as a full scan, and returns the correct answer.
func TestBadWindowsPanicRetries(t *testing.T) {
	tb := buildTable(t, 1500, 13)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: smallZone, MinZoneRows: smallParts})
	installFaulty(e, &faultySkipper{badWindows: true})

	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatalf("query should retry after quarantine, got %v", err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if e.Skipper("a") != nil {
		t.Fatal("column a kept its skipper after a kernel panic")
	}
	if got := e.m.retries.Load(); got != 1 {
		t.Fatalf("retries=%d want 1", got)
	}
	if got := e.m.panics.Load(); got == 0 {
		t.Fatal("recovered panic not counted")
	}
}

// TestWorkerPanicInjection injects panics into parallel scan workers: the
// query must recover them in-goroutine (a bare panic would kill the
// process), quarantine the active skipper, retry, and return the exact
// count — all with Parallelism > 1.
func TestWorkerPanicInjection(t *testing.T) {
	n := minRowsPerWorker * 6
	tb := buildIntTable(t, n)
	e := New(tb, Options{Policy: PolicyAdaptive, Parallelism: 4})
	if err := e.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Activate(faultinject.New(3).
		Set(faultinject.WorkerPanic, faultinject.Rule{Every: 1, Limit: 2}))
	defer restore()

	res, err := e.Query(countQuery("v"))
	if err != nil {
		t.Fatalf("query should survive worker panics, got %v", err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if v := int64(i % 4096); v >= 10 && v <= 2000 {
			want++
		}
	}
	if res.Count != want {
		t.Fatalf("count=%d want %d", res.Count, want)
	}
	if e.Skipper("v") != nil {
		t.Fatal("skipper not dropped after worker panic")
	}
	if quarantineEvents(e) == 0 {
		t.Fatal("no quarantine event emitted")
	}
}

// TestInvariantFlipChaos runs the full corruption lifecycle end to end
// against real adaptive metadata: fault injection corrupts the zone
// layout during Observe, the next probe's tiling check detects it and
// panics with ErrCorrupt, the engine drops the skipper, every answer
// stays correct, and EnableSkipping restores skipping service.
func TestInvariantFlipChaos(t *testing.T) {
	tb := buildTable(t, 4000, 16)
	e := newEngine(t, tb, PolicyAdaptive)

	// Warm up: let the zonemap learn on clean queries first.
	for q := 0; q < 30; q++ {
		lo := int64(q * 100 % 3000)
		if _, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+200)),
			Aggs:  []Agg{{Kind: CountStar}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// One injected invariant flip, then clean again.
	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := e.Query(countQuery("a")); err != nil { // Observe corrupts here
		restore()
		t.Fatal(err)
	}
	restore()

	// Every subsequent query must stay correct; the first probe detects
	// the broken tiling and quarantines.
	for q := 0; q < 5; q++ {
		lo := int64(100 + q*50)
		res, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+500)),
			Aggs:  []Agg{{Kind: CountStar}},
		})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if want := naiveCountA(t, tb, lo, lo+500); res.Count != want {
			t.Fatalf("query %d: count=%d want %d", q, res.Count, want)
		}
	}
	if e.Skipper("a") != nil {
		t.Fatal("corrupted zonemap not dropped")
	}
	if quarantineEvents(e) == 0 {
		t.Fatal("no quarantine event emitted")
	}

	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(countQuery("a"))
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveCountA(t, tb, 10, 2000); res.Count != want {
		t.Fatalf("post-rebuild count=%d want %d", res.Count, want)
	}
}

// TestVerifySkippingDetectsCorruption corrupts real metadata via fault
// injection, then uses the explicit verification pass (not a query) to
// find and bench it.
func TestVerifySkippingDetectsCorruption(t *testing.T) {
	tb := buildTable(t, 4000, 17)
	e := newEngine(t, tb, PolicyAdaptive)
	for q := 0; q < 20; q++ {
		lo := int64(q * 150 % 3000)
		if _, err := e.Query(Query{
			Where: expr.And(intPred("a", expr.Between, lo, lo+200)),
			Aggs:  []Agg{{Kind: CountStar}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.VerifySkipping(); err != nil {
		t.Fatalf("clean metadata failed verification: %v", err)
	}

	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	if _, err := e.Query(countQuery("a")); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	if err := e.VerifySkipping(); err == nil {
		t.Fatal("verification passed on corrupted metadata")
	}
	if e.Skipper("a") != nil {
		t.Fatal("verification did not drop the corrupted column's skipper")
	}
}

// TestVerifySkippingDetectsStaleMetadata overwrites a cell underneath the
// metadata, through the column's own code slice, under every skipping
// policy: the verification pass must notice, quarantine the column
// (queries stay correct by scanning), and a rebuild must clear it. Stale
// metadata is caught at both code widths: column a is []uint32 as built,
// []int64 once a value past 2^32 has escalated it. The adaptive
// zonemap's error names the row and its code, which the kernel's min/max
// alone cannot, so the check walks the failing zone again.
func TestVerifySkippingDetectsStaleMetadata(t *testing.T) {
	for _, policy := range []Policy{PolicyStatic, PolicyImprint, PolicyAdaptive} {
		t.Run(policy.String(), func(t *testing.T) {
			t.Run("uint32", func(t *testing.T) { checkStaleMetadataCaught(t, policy, false) })
			t.Run("int64", func(t *testing.T) { checkStaleMetadataCaught(t, policy, true) })
		})
	}
}

func checkStaleMetadataCaught(t *testing.T, policy Policy, wide bool) {
	tb := buildTable(t, 4000, 17)
	col, err := tb.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	if wide { // one row past every query below escalates the column
		if err := tb.AppendRow(storage.IntValue(1<<32), storage.IntValue(1),
			storage.FloatValue(1), storage.StringValue("ant")); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.Vec().W != nil; got != wide {
		t.Fatalf("column a wide=%v, want %v", got, wide)
	}
	e := newEngine(t, tb, policy)
	if err := e.VerifySkipping(); err != nil {
		t.Fatalf("clean metadata failed verification: %v", err)
	}
	// Column a is sorted 0..3999: 3900 lies outside row 10's zone hull
	// and in a histogram bin the zone never held. The code slices share
	// the column's storage, so the write lands under the metadata.
	if v := col.Vec(); wide {
		v.W[10] = 3900
	} else {
		v.N[10] = 3900
	}
	err = e.VerifySkipping()
	if err == nil {
		t.Fatal("verification passed on stale metadata")
	}
	if policy == PolicyAdaptive && !strings.Contains(err.Error(), "exclude row 10 code 3900") {
		t.Fatalf("verification error %q does not name row 10 and its code", err)
	}
	if e.Skipper("a") != nil {
		t.Fatal("verification did not drop the stale column's skipper")
	}
	q := Query{Where: expr.And(intPred("a", expr.Between, 3000, 3999)), Aggs: []Agg{{Kind: CountStar}}}
	if res, err := e.Query(q); err != nil || res.Count != 1001 {
		t.Fatalf("quarantined count=%d err=%v, want 1001", res.Count, err)
	}
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	if e.Skipper("a") == nil {
		t.Fatal("EnableSkipping built no skipper")
	}
	if err := e.VerifySkipping(); err != nil {
		t.Fatalf("rebuilt metadata failed verification: %v", err)
	}
	if res, err := e.Query(q); err != nil || res.Count != 1001 {
		t.Fatalf("rebuilt count=%d err=%v, want 1001", res.Count, err)
	}
}

func TestQctxCheckpointBounds(t *testing.T) {
	e := New(buildIntTable(t, 10), Options{Limits: Limits{MaxRowsScanned: 100_000}})
	qc := e.newQctx(context.Background())
	tk := &ticker{qc: qc}
	rows := 0
	for {
		if err := tk.tick(1000); err != nil {
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("err=%v, want ErrBudget", err)
			}
			break
		}
		rows += 1000
		if rows > 300_000 {
			t.Fatal("budget never enforced")
		}
	}
	// Enforcement lag is bounded by one checkpoint interval.
	if rows > 100_000+checkpointRows {
		t.Fatalf("budget overshoot: %d rows before error", rows)
	}
}
