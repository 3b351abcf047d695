package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adskip/internal/obs"
	"adskip/internal/stats"
)

// shardedSource builds a server source for a 3-shard table: one skipmap
// snapshot per shard, and a workload whose two templates touched
// different shard sets.
func shardedSource() Source {
	src := testSource()
	src.Skipmap = func(maxZones int) []obs.SkipmapTable {
		out := make([]obs.SkipmapTable, 0, 3)
		for i := 1; i <= 3; i++ {
			out = append(out, obs.SkipmapTable{
				Table: "t", Shard: i, Shards: 3, Rows: 64,
				Columns: []obs.SkipmapColumn{{Column: "v", Kind: "adaptive", Zones: 1, Enabled: true}},
			})
		}
		return out
	}
	tbl := stats.New(stats.Options{})
	tbl.Record(stats.Sample{
		Fingerprint: "SELECT COUNT(*) FROM t WHERE id < ?", Table: "t",
		Latency: time.Millisecond, RowsRead: 100,
		ShardsScanned: 1, ShardsPruned: 2, Shards: []int{1},
	})
	tbl.Record(stats.Sample{
		Fingerprint: "SELECT COUNT(*) FROM t", Table: "t",
		Latency: time.Millisecond, RowsRead: 300,
		ShardsScanned: 3, Shards: []int{1, 2, 3},
	})
	src.Workload = tbl
	return src
}

// TestSkipmapShardFilter: ?shard=N narrows the heatmap to one shard's
// snapshots; bad and out-of-range values are 400s, never 500s or a
// silently empty list.
func TestSkipmapShardFilter(t *testing.T) {
	srv, err := Start("", shardedSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/skipmap?shard=2")
	if code != http.StatusOK {
		t.Fatalf("/skipmap?shard=2 = %d\n%s", code, body)
	}
	var tables []obs.SkipmapTable
	if err := json.Unmarshal([]byte(body), &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Shard != 2 || tables[0].Shards != 3 {
		t.Fatalf("shard=2 returned %+v, want exactly shard 2 of 3", tables)
	}

	for _, q := range []string{"?shard=abc", "?shard=0", "?shard=-1", "?shard=99", "?shard=1.5"} {
		if code, body := get(t, srv.URL()+"/skipmap"+q); code != http.StatusBadRequest {
			t.Errorf("/skipmap%s = %d, want 400\n%s", q, code, body)
		}
	}
}

// TestSkipmapShardFilterUnsharded: on an unsharded catalog every shard
// number is out of range — a 400, not an empty 200.
func TestSkipmapShardFilterUnsharded(t *testing.T) {
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, body := get(t, srv.URL()+"/skipmap?shard=1"); code != http.StatusBadRequest {
		t.Fatalf("/skipmap?shard=1 on unsharded catalog = %d, want 400\n%s", code, body)
	}
}

// TestWorkloadShardFilter: ?shard=N keeps only templates that scanned
// that shard; validation mirrors /skipmap.
func TestWorkloadShardFilter(t *testing.T) {
	srv, err := Start("", shardedSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	decode := func(query string) stats.WorkloadSnapshot {
		t.Helper()
		code, body := get(t, srv.URL()+"/workload"+query)
		if code != http.StatusOK {
			t.Fatalf("/workload%s = %d\n%s", query, code, body)
		}
		var snap stats.WorkloadSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	all := decode("")
	if len(all.Templates) != 2 || all.MaxShard != 3 {
		t.Fatalf("unfiltered: %d templates, max_shard=%d", len(all.Templates), all.MaxShard)
	}
	// Shard 2 was only scanned by the full-table template.
	two := decode("?shard=2")
	if len(two.Templates) != 1 || two.Templates[0].Fingerprint != "SELECT COUNT(*) FROM t" {
		t.Fatalf("shard=2 templates = %+v", two.Templates)
	}
	// Shard 1 was scanned by both.
	if one := decode("?shard=1"); len(one.Templates) != 2 {
		t.Fatalf("shard=1 returned %d templates, want 2", len(one.Templates))
	}

	for _, q := range []string{"?shard=abc", "?shard=0", "?shard=4"} {
		if code, body := get(t, srv.URL()+"/workload"+q); code != http.StatusBadRequest {
			t.Errorf("/workload%s = %d, want 400\n%s", q, code, body)
		}
	}

	// The filter composes with CSV export.
	code, body := get(t, srv.URL()+"/workload?shard=2&format=csv")
	if code != http.StatusOK {
		t.Fatalf("shard CSV = %d\n%s", code, body)
	}
}

// TestWorkloadShardFilterUnsharded: no shard has been recorded, so any
// ?shard is out of range.
func TestWorkloadShardFilterUnsharded(t *testing.T) {
	srv, err := Start("", workloadSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, body := get(t, srv.URL()+"/workload?shard=1"); code != http.StatusBadRequest {
		t.Fatalf("/workload?shard=1 on unsharded workload = %d, want 400\n%s", code, body)
	}
}
