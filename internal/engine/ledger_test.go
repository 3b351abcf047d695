package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/expr"
	"adskip/internal/obs"
)

const ledgerFP = "SELECT COUNT(*) FROM t WHERE v BETWEEN ? AND ?"

// adaptiveLedgerEngine builds a clustered adaptive engine sharing the
// given ledger, sized so a hot range query forces splits quickly.
func adaptiveLedgerEngine(t *testing.T, ledger *obs.Ledger) *Engine {
	t.Helper()
	tb := sortedTable(t, 1<<14)
	e := New(tb, Options{
		Policy:      PolicyAdaptive,
		ZoneSize:    4096,
		MinZoneRows: 64,
		Ledger:      ledger,
	})
	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLedgerSplitProvenance: a hot fingerprinted range query drives the
// adaptive zonemap to split, and every split lands in the ledger with
// full provenance — table, column, cause, and the triggering template.
func TestLedgerSplitProvenance(t *testing.T) {
	ledger := obs.NewLedger(0)
	e := adaptiveLedgerEngine(t, ledger)

	// The build itself is journaled before any query runs.
	recs := ledger.Records()
	if len(recs) != 1 || recs[0].Kind != obs.EventSkipperBuilt || recs[0].Cause != "build" {
		t.Fatalf("build record = %+v, want one skipper-built/build record", recs)
	}
	if recs[0].Table != "t" || recs[0].Column != "a" {
		t.Fatalf("build record provenance = %+v", recs[0])
	}

	ctx := obs.WithTemplate(context.Background(), ledgerFP)
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 5000, 5200)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 12; i++ {
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	var splits []obs.LedgerRecord
	for _, r := range ledger.Records() {
		if r.Kind == obs.EventSplit {
			splits = append(splits, r)
		}
	}
	if len(splits) == 0 {
		t.Fatal("hot range query produced no split records")
	}
	for _, r := range splits {
		if r.Table != "t" || r.Column != "a" {
			t.Fatalf("split record misattributed: %+v", r)
		}
		if r.Cause != "split-gain" {
			t.Fatalf("split cause = %q, want split-gain (%+v)", r.Cause, r)
		}
		if r.Fingerprint != ledgerFP {
			t.Fatalf("split fingerprint = %q, want the triggering template (%+v)", r.Fingerprint, r)
		}
		if r.ZonesAfter <= r.ZonesBefore {
			t.Fatalf("split did not grow the zone count: %+v", r)
		}
		if r.RowHi <= r.RowLo {
			t.Fatalf("split row window empty: %+v", r)
		}
	}

	// The per-table totals fold at append time and remember the splitter.
	tot := ledger.Totals("t")
	if tot.Splits != uint64(len(splits)) {
		t.Fatalf("totals.Splits = %d, want %d", tot.Splits, len(splits))
	}
	if tot.LastSplitCause != ledgerFP {
		t.Fatalf("LastSplitCause = %q, want the fingerprint", tot.LastSplitCause)
	}

	// The per-kind counter tracked every append.
	var counted int64
	for _, kind := range []string{"skipper-built", "split"} {
		counted += e.Metrics().Counter("adskip_adapt_events_total", "",
			obs.L("table", "t"), obs.L("column", "a"), obs.L("kind", kind)).Load()
	}
	if counted != int64(1+len(splits)) {
		t.Fatalf("adskip_adapt_events_total = %d, want %d", counted, 1+len(splits))
	}
}

// TestExplainAnalyzeWhyNotSkipped: the trace classifies each zone a probe
// left unpruned by its one of two reasons, and renders them as the "not
// skipped" line: a predicate that straddles a zone boundary leaves zones
// whose bounds overlap it; one that covers every zone's bounds leaves the
// zones holding a NULL, whose coverage proof the NULL blocks. A plain
// EXPLAIN, which probes the same metadata first, renders the same line.
func TestExplainAnalyzeWhyNotSkipped(t *testing.T) {
	nullable := New(buildTable(t, 4096, 1), Options{Policy: PolicyAdaptive, ZoneSize: 512})
	if err := nullable.EnableSkipping("b"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		e                     *Engine
		pred                  expr.Pred
		overlap, nullStraddle bool
	}{
		// Straddles the first 4096-row zone's upper bound mid-zone.
		{adaptiveLedgerEngine(t, obs.NewLedger(0)), intPred("a", expr.Between, 3000, 5000), true, false},
		// Covers b's whole domain; every 512-row zone holds a NULL.
		{nullable, intPred("b", expr.Between, -1, 1000), false, true},
	} {
		q := Query{Where: expr.And(c.pred), Aggs: []Agg{{Kind: CountStar}}}
		plan, err := c.e.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		_, res, err := c.e.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Trace.Predicates[0]
		if (p.NotSkippedOverlap > 0) != c.overlap || (p.NotSkippedNullStraddle > 0) != c.nullStraddle {
			t.Fatalf("%v: misses classified %+v, want overlap %v, null-straddle %v", c.pred, p, c.overlap, c.nullStraddle)
		}
		want := fmt.Sprintf("  not skipped: %d zones — %d bounds-overlap, %d null-straddle",
			p.NotSkippedOverlap+p.NotSkippedNullStraddle, p.NotSkippedOverlap, p.NotSkippedNullStraddle)
		for name, lines := range map[string][]string{"EXPLAIN ANALYZE": AnalyzeLines(res, false), "EXPLAIN": plan} {
			if !slices.Contains(lines, want) {
				t.Fatalf("%v: reason line %q missing from %s:\n%s", c.pred, want, name, strings.Join(lines, "\n"))
			}
		}
	}
}

// TestAdaptationROICreditsAndDebits: after convergence the ROI row
// credits the skipped rows, debits probes and maintenance, and nets out
// positive for a well-behaved hot range; and a rebuild, which replaces the
// skipper but not the column, leaves every lifetime counter where it was.
func TestAdaptationROICreditsAndDebits(t *testing.T) {
	e := adaptiveLedgerEngine(t, obs.NewLedger(0))
	ctx := obs.WithTemplate(context.Background(), ledgerFP)
	q := Query{
		Where: expr.And(intPred("a", expr.Between, 5000, 5200)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 12; i++ {
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	rois := e.AdaptationROI(16)
	if len(rois) != 1 {
		t.Fatalf("ROI rows = %d, want 1", len(rois))
	}
	r := rois[0]
	if r.Table != "t" || r.Column != "a" || r.Kind == "" {
		t.Fatalf("ROI identity: %+v", r)
	}
	if r.RowsSkipped == 0 || r.ZoneProbes == 0 {
		t.Fatalf("ROI has no activity: %+v", r)
	}
	if r.BytesSkipped != r.RowsSkipped*4 { // a holds 4-byte codes
		t.Fatalf("BytesSkipped = %d, want rows*4 = %d", r.BytesSkipped, r.RowsSkipped*4)
	}
	if r.MaintEvents == 0 || r.MaintZones == 0 {
		t.Fatalf("splits happened but maintenance was never debited: %+v", r)
	}
	if r.NetRows <= 0 {
		t.Fatalf("hot range should net positive: %+v", r)
	}
	if r.CandidateRows == 0 {
		t.Fatalf("candidate-row join from engine counters missing: %+v", r)
	}

	if err := e.EnableSkipping("a"); err != nil {
		t.Fatal(err)
	}
	after := e.AdaptationROI(16)[0]
	if after.RowsSkipped != r.RowsSkipped || after.ZoneProbes != r.ZoneProbes ||
		after.MaintEvents != r.MaintEvents || after.MaintZones != r.MaintZones {
		t.Fatalf("a rebuild moved the lifetime counters:\nbefore %+v\nafter  %+v", r, after)
	}
}

// TestAdaptationROIDeadZones: metadata that is probed but never prunes
// is pure overhead, and the ROI row must surface it — count plus
// bounded per-zone detail. A dead zone is one whose heat is below
// MergeHeat: the zones a merge would coalesce.
func TestAdaptationROIDeadZones(t *testing.T) {
	// Column "b" is uniform random, so every zone's hull spans nearly the
	// whole domain: a narrow predicate overlaps every zone (no prune) yet
	// covers none (no short-circuit) — all probes are misses, and each
	// cools the zone by HeatAlpha: from 0.5 to 0.5·0.75^10 ≈ 0.028 after
	// ten queries, below MergeHeat 0.05. Merging is off, so the four cold
	// zones stay four.
	tb := buildTable(t, 4096, 1)
	e := New(tb, Options{Policy: PolicyAdaptive, ZoneSize: 1024, MinZoneRows: 1024,
		Ledger: obs.NewLedger(0)})
	if err := e.EnableSkipping("b"); err != nil {
		t.Fatal(err)
	}
	e.Skipper("b").(*adaptive.Zonemap).Ablate(adaptive.Merge)
	q := Query{
		Where: expr.And(intPred("b", expr.Between, 400, 420)),
		Aggs:  []Agg{{Kind: CountStar}},
	}
	for i := 0; i < 10; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	rois := e.AdaptationROI(2)
	if len(rois) != 1 {
		t.Fatalf("ROI rows = %d, want 1", len(rois))
	}
	r := rois[0]
	if r.DeadZones != r.Zones || r.DeadZones != 4 {
		t.Fatalf("dead zones = %d of %d, want all 4 zones dead", r.DeadZones, r.Zones)
	}
	if len(r.DeadZoneDetail) != 2 {
		t.Fatalf("detail entries = %d, want the maxDead cap of 2", len(r.DeadZoneDetail))
	}
	for _, z := range r.DeadZoneDetail {
		if z.Heat >= 0.05 || z.Hi <= z.Lo {
			t.Fatalf("dead-zone detail malformed: %+v", z)
		}
	}
	// With detail disabled the counts survive.
	r0 := e.AdaptationROI(0)[0]
	if r0.DeadZones != r.DeadZones || r0.DeadZoneDetail != nil {
		t.Fatalf("maxDead=0: %+v", r0)
	}
}
