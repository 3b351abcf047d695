package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"

	"adskip/internal/obs"
)

// Endpoint contracts: the /workload and /adaptation schemas are locked in
// their own test files; this file covers the /slow shard filter.

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
