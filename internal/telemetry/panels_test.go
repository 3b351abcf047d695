package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"

	"adskip/internal/obs"
)

// Endpoint contracts: the JSON key sets operator tooling reads. The
// /workload and /adaptation schemas are locked in their own test files;
// this file covers /skipmap plus the /slow shard filter.

// TestSkipmapPanelSchema golden-locks the /skipmap table, column, and
// zone key sets: renames and removals break tooling that scrapes them.
func TestSkipmapPanelSchema(t *testing.T) {
	srv, err := Start("", testSource())
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
	srv, err := Start("", src)
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
