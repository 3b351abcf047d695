package telemetry

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"adskip/internal/obs"
	"adskip/internal/stats"
)

// shardedSource builds a server source for a 3-shard table: a workload
// whose two templates touched different shard sets. The costlier one by
// time scanned shard 1 only.
func shardedSource() Source {
	src := testSource()
	tbl := stats.New(nil)
	tbl.Record(stats.Sample{
		Fingerprint: "SELECT COUNT(*) FROM t WHERE id < ?", Table: "t",
		Latency: 5 * time.Millisecond, Cost: obs.Cost{RowsScanned: 100, ShardsScanned: 1, ShardsPruned: 2},
		Shards: []int{1},
	})
	tbl.Record(stats.Sample{
		Fingerprint: "SELECT COUNT(*) FROM t", Table: "t",
		Latency: time.Millisecond, Cost: obs.Cost{RowsScanned: 300, ShardsScanned: 3},
		Shards: []int{1, 2, 3},
	})
	src.Workload = tbl
	return src
}

// TestWorkloadShardFilter: ?shard=N keeps only templates that scanned
// that shard; bad and out-of-range values are 400s, never 500s or a
// silently empty list.
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
	// The filter runs before the top-K cut: the costliest template never
	// scanned shard 2, and the one that did is still returned.
	if top := decode("?shard=2&k=1"); len(top.Templates) != 1 || top.Templates[0].Fingerprint != "SELECT COUNT(*) FROM t" {
		t.Fatalf("shard=2&k=1 templates = %+v", top.Templates)
	}

	for _, q := range []string{"?shard=abc", "?shard=0", "?shard=-1", "?shard=4", "?shard=1.5"} {
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
