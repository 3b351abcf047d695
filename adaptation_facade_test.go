package adskip

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"adskip/internal/adaptive"
	"adskip/internal/engine"
	"adskip/internal/faultinject"
	"adskip/internal/shard"
)

// adaptationDB opens an adaptive DB over 16k rows, sharded on "v" when
// shards > 1, with two skipping columns of opposite character: "v" is
// sorted (a hot range converges and splits pay off) while "noise" is
// uniform pseudo-random (every zone's hull spans the domain, so its
// metadata never prunes and its zones go cold — dead zones by
// construction). Merging is off, so the cold zones stay where they are:
// the facade exports no ablation switch, so the test ablates every
// skipper it builds (noMerges).
func adaptationDB(t *testing.T, shards int) (*DB, *Table) {
	t.Helper()
	db := Open(Options{
		Policy: Adaptive, ZoneSize: 4096, MinZoneRows: 64,
		Shards: shards, ShardKey: "v",
	})
	tab, err := db.CreateTable("data", Col("v", Int64), Col("noise", Int64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 14
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []Value{
			IntValue(int64(i)),
			IntValue(int64(i) * 2654435761 % 1000),
		})
	}
	if err := tab.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.EnableSkipping("v", "noise"); err != nil {
		t.Fatal(err)
	}
	noMerges(tab)
	return db, tab
}

// noMerges switches merging off in every skipper of tab's two columns, on
// every shard. A rebuilt skipper merges again until this is called anew.
func noMerges(tab *Table) {
	engines := []*engine.Engine{tab.Engine()}
	if m, ok := tab.eng.(*shard.Manager); ok {
		engines = engines[:0]
		for id := 1; id <= m.Shards(); id++ {
			engines = append(engines, m.ShardEngine(id))
		}
	}
	for _, e := range engines {
		for _, col := range []string{"v", "noise"} {
			e.Skipper(col).(*adaptive.Zonemap).Ablate(adaptive.Merge)
		}
	}
}

// TestAdaptationThroughFacade is the end-to-end acceptance check: a hot
// SQL template drives splits that land in the ledger with the template's
// fingerprint as cause, ROI accounting credits the pruning against its
// maintenance, and useless metadata surfaces as a dead-zone report.
func TestAdaptationThroughFacade(t *testing.T) {
	db, _ := adaptationDB(t, 1)
	defer db.Close()

	for i := 0; i < 12; i++ {
		lo := 5000 + i // literal variants collapse into one template
		if _, err := db.Exec(fmt.Sprintf(
			"SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", lo, lo+200)); err != nil {
			t.Fatal(err)
		}
	}
	// Ten misses cool each noise zone from 0.5 to 0.5·0.75^10 ≈ 0.028,
	// below MergeHeat 0.05.
	for i := 0; i < 10; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM data WHERE noise BETWEEN 400 AND 420"); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.Adaptation(16)
	if snap.Total == 0 || len(snap.Events) == 0 {
		t.Fatalf("empty adaptation snapshot: total=%d events=%d", snap.Total, len(snap.Events))
	}

	// Splits happened, and each carries the SQL template that caused it.
	const wantFP = "SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?"
	var splits int
	for _, e := range snap.Events {
		if e.Kind.String() != "split" {
			continue
		}
		splits++
		if e.Table != "data" || e.Column != "v" {
			t.Fatalf("split on unexpected column: %+v", e)
		}
		if e.Cause != "split-gain" || e.Fingerprint != wantFP {
			t.Fatalf("split provenance = cause %q fp %q, want split-gain / the SQL template", e.Cause, e.Fingerprint)
		}
	}
	if splits == 0 {
		t.Fatalf("no split events in %d records", len(snap.Events))
	}

	// ROI rows are sorted (table, column, shard) and tell the two columns
	// apart: v earns, noise is pure overhead.
	if len(snap.ROI) != 2 {
		t.Fatalf("ROI rows = %d, want 2", len(snap.ROI))
	}
	noise, v := snap.ROI[0], snap.ROI[1]
	if noise.Column != "noise" || v.Column != "v" {
		t.Fatalf("ROI rows out of order: %q then %q", noise.Column, v.Column)
	}
	if v.RowsSkipped == 0 || v.NetRows <= 0 {
		t.Fatalf("hot column earned nothing: %+v", v)
	}
	if noise.RowsSkipped != 0 || noise.NetRows >= 0 {
		t.Fatalf("noise column should be pure debit: %+v", noise)
	}
	if noise.DeadZones == 0 || len(noise.DeadZoneDetail) == 0 {
		t.Fatalf("dead-zone report missing: %+v", noise)
	}
	if noise.DeadZones != noise.Zones {
		t.Fatalf("dead zones = %d of %d, want every noise zone dead", noise.DeadZones, noise.Zones)
	}
	for _, z := range noise.DeadZoneDetail {
		if z.Heat >= 0.05 {
			t.Fatalf("dead zone %+v is not below MergeHeat 0.05", z)
		}
	}

	// The EXPLAIN ANALYZE footer reports the same ledger totals.
	lines, _, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM data WHERE v BETWEEN 5000 AND 5200")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ledger: ") || !strings.Contains(joined, "splits)") {
		t.Fatalf("EXPLAIN ANALYZE ledger footer missing:\n%s", joined)
	}
	if !strings.Contains(joined, wantFP) {
		t.Fatalf("footer lost the splitting template:\n%s", joined)
	}
}

// TestSkipRegressionFlipThroughFacade induces a real skip regression —
// metadata corruption quarantines the hot column, so a template that
// skipped ~90% of its rows abruptly skips none — and watches the
// adskip_adapt_skip_regression_ppm series rise above zero and fall back
// to zero once EnableSkipping rebuilds it. Nothing but db.Metrics() is read: no
// telemetry server runs, and the gauge is computed when it is scraped.
func TestSkipRegressionFlipThroughFacade(t *testing.T) {
	db := Open(Options{Policy: Adaptive, ZoneSize: 1024, MinZoneRows: 256})
	defer db.Close()
	tab, err := db.CreateTable("data", Col("v", Int64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8192; i++ {
		if err := tab.Append(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	ppm := func() int64 {
		t.Helper()
		v, ok := seriesValue(scrape(t, db), "adskip_adapt_skip_regression_ppm")
		if !ok {
			t.Fatal("no adskip_adapt_skip_regression_ppm series")
		}
		return v
	}

	const hot = "SELECT COUNT(*) FROM data WHERE v BETWEEN 4000 AND 4100"
	exec := func() {
		t.Helper()
		if _, err := db.Exec(hot); err != nil {
			t.Fatal(err)
		}
	}
	// waitFor runs the hot template until cond holds on a fresh scrape.
	waitFor := func(what string, cond func(ppm int64) bool) {
		t.Helper()
		for i := 0; !cond(ppm()); i++ {
			if i == 500 {
				t.Fatalf("%s: gauge %d ppm after %d queries", what, ppm(), i)
			}
			exec()
		}
	}

	// Learn the baseline: the sorted column prunes ~7 of 8 zones, and a
	// template that only gets better never opens a gap.
	for i := 0; i < 40; i++ {
		exec()
	}
	waitFor("gap during healthy learning", func(ppm int64) bool { return ppm == 0 })

	// Induce: one injected invariant flip corrupts the zonemap; the next
	// probe detects it and quarantines the column — skipping collapses.
	restore := faultinject.Activate(faultinject.New(5).
		Set(faultinject.InvariantFlip, faultinject.Rule{Every: 1, Limit: 1}))
	exec()
	restore()
	waitFor("no regression after quarantine collapsed skipping",
		func(ppm int64) bool { return ppm > 0 })
	if _, ok := tab.SkipperInfo()["v"]; ok {
		t.Fatal("regression detected but the column's skipper was never dropped")
	}

	// Recover: rebuild the metadata and keep the template hot; the fast
	// EWMA climbs back past the baseline and the gap closes.
	if err := tab.EnableSkipping("v"); err != nil {
		t.Fatal(err)
	}
	waitFor("regression never cleared after the rebuild",
		func(ppm int64) bool { return ppm == 0 })
}

// TestROIMatchesColumnCounters: every probe counter of an /adaptation ROI
// row is the adskip_column_* series with the same table, shard and column
// labels, read off db.Metrics() — across queries, an EXPLAIN (which pays
// for a probe) and a rebuild (which replaces the skipper but not the
// column): every counter in a row covers the column's lifetime. Its net
// benefit is adaptive.Net of those counters, the charge arbitration
// steps by, and its maintenance events are the column's
// adskip_adapt_events_total records of the skipper's own kinds.
func TestROIMatchesColumnCounters(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, tab := adaptationDB(t, shards)
			defer db.Close()
			exec := func(q string) {
				t.Helper()
				if _, err := db.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				exec(fmt.Sprintf("SELECT COUNT(*) FROM data WHERE v BETWEEN %d AND %d", 5000+100*i, 5200+100*i))
				exec("SELECT COUNT(*) FROM data WHERE noise BETWEEN 400 AND 420")
			}
			exec("EXPLAIN SELECT COUNT(*) FROM data WHERE v BETWEEN 12000 AND 12100")
			if err := tab.EnableSkipping("v", "noise"); err != nil {
				t.Fatal(err)
			}
			noMerges(tab)
			exec("SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 1100")
			exec("SELECT COUNT(*) FROM data WHERE v BETWEEN 9000 AND 16383")

			metrics := scrape(t, db)
			rois := db.Adaptation(0).ROI
			if len(rois) != 2*shards {
				t.Fatalf("ROI rows = %d, want 2 columns x %d shards", len(rois), shards)
			}
			var skipped int64
			for _, r := range rois {
				// The exposition sorts label keys: column, kind, shard, table.
				column, rest := `column="`+r.Column+`",`, `table="data"`
				if r.Shard > 0 {
					rest = fmt.Sprintf(`shard="%d",`, r.Shard) + rest
				}
				labels := column + rest
				for _, c := range []struct {
					series string
					got    int64
				}{
					{"adskip_column_rows_skipped_total", r.RowsSkipped},
					{"adskip_column_zones_probed_total", r.ZoneProbes},
					{"adskip_column_candidate_rows_total", r.CandidateRows},
					{"adskip_column_covered_rows_total", r.RowsCovered},
				} {
					want, ok := seriesValue(metrics, c.series+"{"+labels+"}")
					if !ok || c.got != want {
						t.Errorf("%s shard %d: ROI reads %d, %s{%s} reads %d (found %v)",
							r.Column, r.Shard, c.got, c.series, labels, want, ok)
					}
				}
				var events int64
				for _, kind := range []string{"split", "merge", "tail-fold", "disable", "enable"} {
					n, _ := seriesValue(metrics, `adskip_adapt_events_total{`+column+`kind="`+kind+`",`+rest+"}")
					events += n
				}
				if r.MaintEvents != events {
					t.Errorf("%s shard %d: maintenance_events %d, the column's adaptation records %d",
						r.Column, r.Shard, r.MaintEvents, events)
				}
				if want := adaptive.Net(r.RowsSkipped, r.ZoneProbes); r.NetRows != want {
					t.Errorf("%s shard %d: net_benefit_rows %v, adaptive.Net of its counters %v",
						r.Column, r.Shard, r.NetRows, want)
				}
				skipped += r.RowsSkipped
			}
			if skipped == 0 {
				t.Fatal("no ROI row skipped a row: the stream never exercised the counters")
			}
		})
	}
}

// TestAdaptationSharded: the one shared ledger serves a sharded catalog
// — per-shard engines stamp their records, ROI fans out across shards,
// and the /adaptation endpoint serves it all with shard filtering.
func TestAdaptationSharded(t *testing.T) {
	db, _ := shardedDB(t, "range")
	defer db.Close()
	for i := 0; i < 4; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM sales WHERE id BETWEEN 10 AND 40"); err != nil {
			t.Fatal(err)
		}
	}

	snap := db.Adaptation(8)
	shardsSeen := map[int]bool{}
	for _, e := range snap.Events {
		shardsSeen[e.Shard] = true
	}
	for sh := 1; sh <= 4; sh++ {
		if !shardsSeen[sh] {
			t.Fatalf("no ledger records from shard %d (saw %v)", sh, shardsSeen)
		}
	}
	if len(snap.ROI) == 0 {
		t.Fatal("no ROI rows from sharded catalog")
	}
	roiShards := map[int]bool{}
	for _, r := range snap.ROI {
		if r.Table != "sales" {
			t.Fatalf("ROI table = %q", r.Table)
		}
		roiShards[r.Shard] = true
	}
	for sh := 1; sh <= 4; sh++ {
		if !roiShards[sh] {
			t.Fatalf("no ROI row from shard %d (saw %v)", sh, roiShards)
		}
	}

	url, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/adaptation?shard=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/adaptation?shard=2 = %d", resp.StatusCode)
	}
	var served AdaptationSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if len(served.Events) == 0 && len(served.ROI) == 0 {
		t.Fatal("shard=2 served nothing")
	}
	for _, e := range served.Events {
		if e.Shard != 2 {
			t.Fatalf("shard filter leaked: %+v", e)
		}
	}
	for _, r := range served.ROI {
		if r.Shard != 2 {
			t.Fatalf("shard filter leaked ROI: %+v", r)
		}
	}
}

// TestExplainAnalyzeLedgerFooter: once the table has ledger activity,
// EXPLAIN ANALYZE gains the ledger footer with the table's totals and the
// template behind the last split — rendered once by the front door, so a
// sharded table shows it too.
func TestExplainAnalyzeLedgerFooter(t *testing.T) {
	const q = "SELECT COUNT(*) FROM data WHERE v BETWEEN 5000 AND 5200"
	const fp = "SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?"
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _ := adaptationDB(t, shards)
			var lines []string
			for i := 0; i < 12; i++ {
				var err error
				if lines, _, err = db.ExplainAnalyze(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			var footers []string
			for _, l := range lines {
				if strings.HasPrefix(l, "ledger: ") {
					footers = append(footers, l)
				}
			}
			if len(footers) != 1 {
				t.Fatalf("%d ledger footers, want 1, in:\n%s", len(footers), strings.Join(lines, "\n"))
			}
			footer := footers[0]
			if !strings.Contains(footer, "adaptation events") || !strings.Contains(footer, "splits)") {
				t.Fatalf("ledger footer malformed: %q", footer)
			}
			if !strings.Contains(footer, "last split") || !strings.Contains(footer, fp) {
				t.Fatalf("ledger footer lost split provenance: %q", footer)
			}
		})
	}
}
