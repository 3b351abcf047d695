package adskip

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// seriesValue returns the value of the exposition line for series (name
// plus rendered labels), and whether the line exists.
func seriesValue(exposition, series string) (int64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// scrape returns the DB's Prometheus exposition.
func scrape(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	if err := db.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsCarryEverySignal: one /metrics scrape of a durable, admission-
// bounded DB that has run queries carries every signal an operator reads
// off the process — query and row totals, slow and failed queries, the
// latency histogram, adaptation events, per-column skipping state, queue
// depth, WAL lag and the Go runtime — with the instantaneous ones read at
// scrape time.
func TestMetricsCarryEverySignal(t *testing.T) {
	db := seededDB(t, Options{Policy: Adaptive, MaxConcurrentQueries: 2,
		Durability: Durability{Dir: t.TempDir()}})
	defer db.Close()
	if _, err := db.Recover(); err != nil {
		t.Fatal(err)
	}
	url, err := db.StartTelemetry("")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)

	const tbl, col = `{table="events"}`, `{column="v",table="events"}`
	positive := []string{
		"adskip_queries_total" + tbl,
		"adskip_rows_scanned_total" + tbl,
		"adskip_rows_skipped_total" + tbl,
		"adskip_query_seconds_count" + tbl,
		"adskip_column_rows_skipped_total" + col,
		"adskip_column_candidate_rows_total" + col,
		"adskip_skipper_zones" + col,
		"adskip_skipper_enabled" + col,
		`adskip_adapt_events_total{column="v",kind="skipper-built",table="events"}`,
		"go_goroutines",
	}
	present := []string{
		"adskip_rows_covered_total" + tbl,
		"adskip_queries_canceled_total" + tbl,
		"adskip_queries_over_budget_total" + tbl,
		"adskip_panics_recovered_total" + tbl,
		"adskip_admission_waiting",
		"adskip_wal_lag_us",
	}
	for _, series := range positive {
		if v, ok := seriesValue(body, series); !ok || v <= 0 {
			t.Errorf("%s = %d (present %v), want > 0", series, v, ok)
		}
	}
	for _, series := range present {
		if _, ok := seriesValue(body, series); !ok {
			t.Errorf("/metrics has no %s series", series)
		}
	}
	if !strings.Contains(body, `adskip_query_seconds_bucket{le="+Inf",table="events"}`) {
		t.Error("/metrics has no latency histogram buckets")
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", body)
	}
}

// TestMetricsThroughFacade checks the public observability surface: every
// query is traced, the shared registry accumulates across tables, and the
// Prometheus exposition renders.
func TestMetricsThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	res, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace on facade result")
	}
	if res.Trace.Table != "sales" || res.Trace.RowsTotal != 5 {
		t.Fatalf("trace identity: %+v", res.Trace)
	}

	var prom strings.Builder
	if err := db.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`adskip_queries_total{table="sales"} 1`,
		`# TYPE adskip_query_seconds histogram`,
		`adskip_adapt_events_total{column="price",kind="skipper-built",table="sales"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, prom.String())
		}
	}

	// Enabling skipping emitted lifecycle events for all three columns.
	evs := db.Adaptation(0).Events
	if len(evs) < 3 {
		t.Fatalf("adaptation events = %d, want >= 3 (skipper-built per column)", len(evs))
	}
	seen := map[string]bool{}
	for _, ev := range evs {
		if ev.Table != "sales" {
			t.Fatalf("event with wrong table: %+v", ev)
		}
		seen[ev.Column] = true
	}
	for _, col := range []string{"id", "price", "city"} {
		if !seen[col] {
			t.Errorf("no lifecycle event for column %q: %v", col, evs)
		}
	}
}

// TestExplainAnalyzeThroughFacade runs the one-call convenience path.
func TestExplainAnalyzeThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	lines, res, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !res.Aggs[0].Equal(IntValue(3)) {
		t.Fatalf("result: %+v", res)
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"EXPLAIN ANALYZE", "3 rows matched", "pruning:"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q:\n%s", want, joined)
		}
	}
	// The SQL route produces the same rendering as rows.
	sres, err := db.Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM sales WHERE price < 16")
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Rows) != len(lines) {
		t.Fatalf("SQL route rows = %d, direct lines = %d", len(sres.Rows), len(lines))
	}
	// Unknown table errors cleanly.
	if _, _, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
}
