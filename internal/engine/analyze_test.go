package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/table"
)

// sortedTable builds an n-row single-column table with a = row index.
func sortedTable(t testing.TB, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("t", table.Schema{{Name: "a", Type: storage.Int64}})
	col, err := tb.Column("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := col.AppendInt(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestExplainAnalyzeGoldenStatic pins the deterministic (timing-free)
// EXPLAIN ANALYZE rendering on a static zonemap: sorted data, 64-row
// zones, a range that covers two zones exactly. The 16 zones are one
// block, so the probe tests 17 entries: the block, then its zones.
func TestExplainAnalyzeGoldenStatic(t *testing.T) {
	tb := sortedTable(t, 1000)
	e := New(tb, Options{Policy: PolicyStatic, StaticZoneSize: 64})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 128, 255)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	lines, res, err := e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 128 {
		t.Fatalf("count = %d, want 128", res.Count)
	}
	// The returned lines include timings; the golden asserts the
	// deterministic rendering.
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "EXPLAIN ANALYZE") {
		t.Fatalf("unexpected header: %q", lines)
	}
	got := AnalyzeLines(res, false)
	want := []string{
		`EXPLAIN ANALYZE: table "t" (1000 rows), 128 rows matched`,
		`probe: 17 zone probes`,
		`scan: scanned 0, covered 128, skipped 872 rows`,
		`predicate on "a": [128,255] — static skipper: est. 872 rows skippable (87.2%), 1 windows (1 covered, 128 candidate rows); actual matched 128`,
		`pruning: 1000 of 1000 rows avoided (100.0%): 872 skipped, 128 covered; 0 scanned`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i, got[i], want[i])
		}
	}
}

// TestExplainAnalyzeIncreasingSkipped is the headline adaptive check: on
// sorted data, repeating the same EXPLAIN ANALYZE lets the zonemap refine
// itself, so the reported rows-skipped figure must climb, through strictly
// increasing levels (the acceptance criterion for adaptation visibility),
// to every row outside the 64-row parts the predicate touches: the split
// cuts the zone it had to scan at the summary's part boundaries at once.
func TestExplainAnalyzeIncreasingSkipped(t *testing.T) {
	tb := sortedTable(t, 1<<14)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: adaptive.Config{
		InitialZoneRows: 4096, MinZoneRows: 64,
	}})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 5000, 5200)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	var levels []int
	for i := 0; i < 12; i++ {
		_, res, err := e.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("no trace recorded")
		}
		skipped := res.Trace.RowsSkipped
		if len(levels) == 0 || skipped != levels[len(levels)-1] {
			levels = append(levels, skipped)
		}
	}
	if len(levels) < 2 {
		t.Fatalf("rows-skipped never progressed: levels %v", levels)
	}
	if last := levels[len(levels)-1]; last != 1<<14-(5248-4992) {
		t.Fatalf("rows-skipped settled at %d, want every row outside parts [4992, 5248): levels %v", last, levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatalf("rows-skipped not strictly increasing across levels: %v", levels)
		}
	}
}

// TestResultTraceAttached checks every query carries a complete trace.
func TestResultTraceAttached(t *testing.T) {
	tb := buildTable(t, 1000, 1)
	e := newEngine(t, tb, PolicyAdaptive)
	res, err := e.Query(Query{
		Where: expr.And(intPred("a", expr.Between, 100, 300)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace on result")
	}
	if tr.Table != "t" || tr.RowsTotal != 1000 {
		t.Fatalf("trace identity wrong: %+v", tr)
	}
	if tr.Total <= 0 {
		t.Fatalf("total duration %v not positive", tr.Total)
	}
	if tr.Matched != res.Count {
		t.Fatalf("trace matched %d != count %d", tr.Matched, res.Count)
	}
	if len(tr.Predicates) != 1 || tr.Predicates[0].Column != "a" {
		t.Fatalf("predicate trace wrong: %+v", tr.Predicates)
	}
	if tr.Predicates[0].Matched != res.Count {
		t.Fatalf("single-predicate attribution missing: %+v", tr.Predicates[0])
	}
	if tr.RowsScanned != res.Stats.RowsScanned || tr.RowsSkipped != res.Stats.RowsSkipped {
		t.Fatalf("trace totals diverge from stats: %+v vs %+v", tr, res.Stats)
	}
}

// TestExplainLifetimeAndCoveredFooter checks the two Explain upgrades: the
// cumulative lifetime counters line (which must advance across repeated
// EXPLAINs) and the all-windows-covered footer.
func TestExplainLifetimeAndCoveredFooter(t *testing.T) {
	tb := sortedTable(t, 1000)
	e := New(tb, Options{Policy: PolicyStatic, StaticZoneSize: 64})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 128, 255)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	first, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(first, "\n")
	if !strings.Contains(joined, "all candidate windows covered: no residual predicate evaluation needed") {
		t.Errorf("covered footer missing:\n%s", joined)
	}
	if !strings.Contains(joined, "lifetime: 1 probes (0 declined)") {
		t.Errorf("lifetime counters missing or wrong:\n%s", joined)
	}
	second, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(second, "\n"), "lifetime: 2 probes (0 declined)") {
		t.Errorf("repeated EXPLAIN did not advance lifetime counters:\n%s", strings.Join(second, "\n"))
	}

	// A partially-covered range must not claim the footer.
	part, err := e.Explain(Query{
		Where: expr.And(intPred("a", expr.Between, 100, 200)),
		Aggs:  []Agg{{Kind: CountStar}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.Join(part, "\n"), "all candidate windows covered") {
		t.Errorf("covered footer wrongly emitted for partial range:\n%s", strings.Join(part, "\n"))
	}
}

// TestProbeOnlyPathsLeaveSkipperUnchanged: a probe that no Observe follows
// teaches the adaptive zonemap nothing. A plain EXPLAIN and a query that
// fails its row budget after probing leave every field of the zonemap —
// each zone's bounds, heat, statistics backoff and widened mark, and the
// arbitration state — as it was, while EXPLAIN still counts toward the
// column's probes.
func TestProbeOnlyPathsLeaveSkipperUnchanged(t *testing.T) {
	// The row budget is enforced at checkpoints, one per checkpointRows.
	tb := buildTable(t, 2*checkpointRows, 1)
	e := New(tb, Options{Policy: PolicyAdaptive, Adaptive: smallAdaptive(),
		Limits: Limits{MaxRowsScanned: checkpointRows}})
	if err := e.EnableSkipping("a", "b"); err != nil {
		t.Fatal(err)
	}
	count := func(col string, lo, hi int64) Query {
		return Query{Where: expr.And(intPred(col, expr.Between, lo, hi)), Aggs: []Agg{{Kind: CountStar}}}
	}
	for i := int64(0); i < 40; i++ {
		if _, err := e.Query(count("a", i*3000, i*3000+30)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(col string) string {
		return fmt.Sprintf("%+v", *e.Skipper(col).(*adaptive.Zonemap))
	}

	before, probes := snapshot("a"), e.colMetrics("a").probeQueries.Load()
	if _, err := e.Explain(count("a", 10000, 10500)); err != nil {
		t.Fatal(err)
	}
	if snapshot("a") != before {
		t.Error("EXPLAIN changed the zonemap it explained")
	}
	if got := e.colMetrics("a").probeQueries.Load(); got != probes+1 {
		t.Errorf("EXPLAIN left the probe counter at %d, want %d", got, probes+1)
	}

	// b is uniform: its probe must scan every zone, past the budget — on
	// the fast COUNT path, the ordered path and the general path alike.
	inB := intPred("b", expr.Between, 100, 900)
	for _, q := range []Query{
		count("b", 100, 900),
		{Where: expr.And(inB), Select: []string{"a"}, OrderBy: "a", Limit: 3},
		{Where: expr.And(intPred("a", expr.Between, 0, 2*checkpointRows), inB), Aggs: []Agg{{Kind: CountStar}}},
	} {
		beforeA, beforeB := snapshot("a"), snapshot("b")
		if _, err := e.Query(q); !errors.Is(err, ErrBudget) {
			t.Fatalf("%+v: err=%v, want ErrBudget", q, err)
		}
		if snapshot("a") != beforeA || snapshot("b") != beforeB {
			t.Errorf("%+v: a query that failed after its probe changed a zonemap", q)
		}
	}
}

// TestMetricsUnderConcurrentQueries hammers Query from several goroutines
// while concurrently reading the registry and rendering the exposition.
// Run with -race this is the locking-discipline proof for the
// whole observability plane (trace allocation, atomic counters, event
// sink, exposition snapshot).
func TestMetricsUnderConcurrentQueries(t *testing.T) {
	tb := buildTable(t, 2000, 3)
	e := newEngine(t, tb, PolicyAdaptive)
	const workers = 8
	const queriesEach = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				lo := int64((w*queriesEach + i*13) % 1900)
				_, err := e.Query(Query{
					Where: expr.And(intPred("a", expr.Between, lo, lo+100)),
					Aggs:  []Agg{{Kind: CountStar}},
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var sb strings.Builder
		if err := e.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		_ = e.Ledger().Records()
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-done:
			// Drain any straggler error, then verify the totals.
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			var sb strings.Builder
			if err := e.Metrics().WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			want := `adskip_queries_total{table="t"} 480`
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("missing %q in exposition:\n%s", want, sb.String())
			}
			return
		default:
		}
	}
}
