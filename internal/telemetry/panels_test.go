package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adskip/internal/obs"
)

// Golden locks for the JSON payloads the dashboard panels poll. The
// /workload and /adaptation schemas are locked in their own test files;
// this file covers the /history and /skipmap panels plus the shard
// filters the panels' drill-downs rely on.

// TestHistoryPanelSchema golden-locks the /history envelope and sample
// key set the convergence chart consumes.
func TestHistoryPanelSchema(t *testing.T) {
	smp := obs.NewSampler(time.Hour, 8, func(h *obs.HistorySample) {
		h.Queries = 7
		h.RowsScanned, h.RowsSkipped = 100, 900
		h.SkipRatio = 0.9
		h.SkipRegression = 0.01
		h.Columns = append(h.Columns, obs.HistoryColumn{
			Table: "t", Column: "v", Shard: 1, SkipRatio: 0.5, Zones: 3, Enabled: true})
	})
	defer smp.Stop()
	src := testSource()
	src.History = smp
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/history")
	if code != http.StatusOK {
		t.Fatalf("/history = %d\n%s", code, body)
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(envelope), []string{"interval_ns", "samples", "total"}; !equalStrings(got, want) {
		t.Fatalf("envelope keys = %v, want %v (schema is golden-locked)", got, want)
	}
	var samples []map[string]json.RawMessage
	if err := json.Unmarshal(envelope["samples"], &samples); err != nil || len(samples) == 0 {
		t.Fatalf("samples: err=%v n=%d", err, len(samples))
	}
	wantSample := []string{
		"adapt_events", "columns", "errors", "latency_p50_seconds",
		"latency_p95_seconds", "queries", "queue_depth", "rows_covered",
		"rows_scanned", "rows_skipped", "skip_ratio", "skip_regression",
		"slow_queries", "time", "wal_lag_seconds",
	}
	if got := sortedKeys(samples[0]); !equalStrings(got, wantSample) {
		t.Fatalf("sample keys = %v, want %v (schema is golden-locked)", got, wantSample)
	}
	var cols []map[string]json.RawMessage
	if err := json.Unmarshal(samples[0]["columns"], &cols); err != nil || len(cols) != 1 {
		t.Fatalf("columns: err=%v n=%d", err, len(cols))
	}
	wantCol := []string{"column", "enabled", "shard", "skip_ratio", "table", "zones"}
	if got := sortedKeys(cols[0]); !equalStrings(got, wantCol) {
		t.Fatalf("column keys = %v, want %v (schema is golden-locked)", got, wantCol)
	}
}

// TestSkipmapPanelSchema golden-locks the /skipmap table, column, and
// zone key sets the heatmap panel consumes.
func TestSkipmapPanelSchema(t *testing.T) {
	srv, err := Start(Options{}, testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/skipmap")
	if code != http.StatusOK {
		t.Fatalf("/skipmap = %d\n%s", code, body)
	}
	var tables []map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &tables); err != nil || len(tables) != 1 {
		t.Fatalf("tables: err=%v n=%d", err, len(tables))
	}
	if got, want := sortedKeys(tables[0]), []string{"columns", "rows", "table"}; !equalStrings(got, want) {
		t.Fatalf("table keys = %v, want %v (schema is golden-locked; shard/shards appear only when sharded)", got, want)
	}
	var cols []map[string]json.RawMessage
	if err := json.Unmarshal(tables[0]["columns"], &cols); err != nil || len(cols) != 1 {
		t.Fatalf("columns: err=%v n=%d", err, len(cols))
	}
	wantCol := []string{
		"bytes", "candidate_rows", "column", "covered_rows", "declined",
		"enabled", "kind", "probes", "quarantined", "rows_skipped",
		"skip_ratio", "zone_detail", "zone_probes", "zones",
	}
	if got := sortedKeys(cols[0]); !equalStrings(got, wantCol) {
		t.Fatalf("column keys = %v, want %v (schema is golden-locked)", got, wantCol)
	}
	var zones []map[string]json.RawMessage
	if err := json.Unmarshal(cols[0]["zone_detail"], &zones); err != nil || len(zones) != 1 {
		t.Fatalf("zone_detail: err=%v n=%d", err, len(zones))
	}
	wantZone := []string{"heat", "hi", "hits", "lo", "max", "min", "misses", "non_null"}
	if got := sortedKeys(zones[0]); !equalStrings(got, wantZone) {
		t.Fatalf("zone keys = %v, want %v (schema is golden-locked)", got, wantZone)
	}
}

// TestHistoryShardFilter: ?shard=N narrows each sample's per-column
// series to one shard; engine-wide totals stay catalog-wide. Bad and
// out-of-range shards are 400s.
func TestHistoryShardFilter(t *testing.T) {
	smp := obs.NewSampler(time.Hour, 8, func(h *obs.HistorySample) {
		h.Queries = 7
		for sh := 1; sh <= 3; sh++ {
			h.Columns = append(h.Columns, obs.HistoryColumn{
				Table: "t", Column: "v", Shard: sh, SkipRatio: 0.1 * float64(sh), Zones: int64(sh)})
		}
	})
	defer smp.Stop()
	src := testSource()
	src.History = smp
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/history?shard=2")
	if code != http.StatusOK {
		t.Fatalf("/history?shard=2 = %d\n%s", code, body)
	}
	var listing struct {
		Total   uint64              `json:"total"`
		Samples []obs.HistorySample `json:"samples"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(listing.Samples))
	}
	s := listing.Samples[0]
	if len(s.Columns) != 1 || s.Columns[0].Shard != 2 {
		t.Fatalf("shard=2 columns = %+v, want exactly the shard-2 series", s.Columns)
	}
	if s.Queries != 7 {
		t.Fatalf("shard filter touched engine-wide totals: %+v", s)
	}

	for _, q := range []string{"?shard=abc", "?shard=0", "?shard=-1", "?shard=4"} {
		if code, body := get(t, srv.URL()+"/history"+q); code != http.StatusBadRequest {
			t.Errorf("/history%s = %d, want 400\n%s", q, code, body)
		}
	}
}

// TestSlowShardFilter: ?shard=N matches a per-shard trace's own stamp or
// membership in a merged logical trace's scanned-shard list.
func TestSlowShardFilter(t *testing.T) {
	slow := obs.NewTraceRing(8)
	mk := func(shard int, shards []int) *obs.QueryTrace {
		root := obs.NewSpan("query")
		root.Finish()
		return &obs.QueryTrace{Table: "t", Start: root.Start, Root: root,
			Shard: shard, Shards: shards}
	}
	slow.Append(mk(1, nil))         // per-shard trace from shard 1
	slow.Append(mk(0, []int{1, 3})) // merged logical trace that scanned 1 and 3
	slow.Append(mk(2, nil))         // per-shard trace from shard 2
	src := testSource()
	src.SlowTraces = slow
	srv, err := Start(Options{}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	decode := func(query string) (uint64, []*obs.QueryTrace) {
		t.Helper()
		code, body := get(t, srv.URL()+"/slow"+query)
		if code != http.StatusOK {
			t.Fatalf("/slow%s = %d\n%s", query, code, body)
		}
		var listing struct {
			Total  uint64            `json:"total"`
			Traces []*obs.QueryTrace `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &listing); err != nil {
			t.Fatal(err)
		}
		return listing.Total, listing.Traces
	}

	if total, all := decode(""); total != 3 || len(all) != 3 {
		t.Fatalf("unfiltered: total=%d n=%d", total, len(all))
	}
	// Shard 1: its own trace plus the merged trace that scanned it.
	total, one := decode("?shard=1")
	if len(one) != 2 {
		t.Fatalf("shard=1 traces = %d, want 2", len(one))
	}
	if total != 3 {
		t.Fatalf("filtered total = %d, want the whole ring 3", total)
	}
	// Shard 3 appears only inside the merged trace's shard list.
	if _, three := decode("?shard=3"); len(three) != 1 || len(three[0].Shards) != 2 {
		t.Fatalf("shard=3 traces = %+v, want just the merged logical trace", three)
	}
	if _, two := decode("?shard=2"); len(two) != 1 || two[0].Shard != 2 {
		t.Fatalf("shard=2 traces = %+v", two)
	}

	for _, q := range []string{"?shard=abc", "?shard=0", "?shard=9"} {
		if code, body := get(t, srv.URL()+"/slow"+q); code != http.StatusBadRequest {
			t.Errorf("/slow%s = %d, want 400\n%s", q, code, body)
		}
	}
}
