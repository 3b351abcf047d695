package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"adskip/internal/obs"
	"adskip/internal/stats"
)

// workloadSource builds a server source whose stats table holds two
// templates with distinguishable weights: "big" dominates total time and
// bytes, "hot" dominates calls.
func workloadSource() Source {
	src := testSource()
	tbl := stats.New(nil)
	tbl.Record(stats.Sample{
		Fingerprint: "SELECT COUNT(*) FROM data WHERE v < ?", Table: "data",
		Latency: 50 * time.Millisecond, RowsReturned: 10, ZonesRead: 4, ZonesPruned: 36,
		Cost: obs.Cost{RowsScanned: 1000, RowsSkipped: 9000, BytesScanned: 8000},
	})
	for i := 0; i < 3; i++ {
		tbl.Record(stats.Sample{
			Fingerprint: "SELECT * FROM data WHERE v = ?", Table: "data",
			CacheHit: i > 0, Latency: time.Millisecond,
			RowsReturned: 1, Cost: obs.Cost{RowsScanned: 10, RowsSkipped: 90, BytesScanned: 80},
		})
	}
	src.Workload = tbl
	return src
}

// TestWorkloadEndpointSchema golden-locks the /workload wire schema: the
// exact JSON key set of the envelope and of each template object.
// Additions require updating this test deliberately; renames and
// removals break dashboards and scripts that read it, so they must
// never happen silently.
func TestWorkloadEndpointSchema(t *testing.T) {
	srv, err := Start("", workloadSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/workload")
	if code != http.StatusOK {
		t.Fatalf("/workload = %d, want 200\n%s", code, body)
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &envelope); err != nil {
		t.Fatalf("/workload: invalid JSON: %v\n%s", err, body)
	}
	wantEnvelope := []string{"evicted_templates", "recorded_calls", "sorted_by", "templates", "total_templates"}
	if got := sortedKeys(envelope); !equalStrings(got, wantEnvelope) {
		t.Fatalf("envelope keys = %v, want %v (schema is golden-locked)", got, wantEnvelope)
	}

	var templates []map[string]json.RawMessage
	if err := json.Unmarshal(envelope["templates"], &templates); err != nil || len(templates) != 2 {
		t.Fatalf("templates: err=%v n=%d", err, len(templates))
	}
	// An unsharded template's key set (shard attribution is omitempty).
	wantTemplate := []string{
		"bytes_scanned", "cache_hits", "calls", "errors", "fingerprint",
		"first_seen", "last_seen", "mean_us", "p50_us", "p95_us",
		"rows_read", "rows_returned", "rows_skipped", "skip_base",
		"skip_fast", "skip_ratio", "skip_regression",
		"table", "total_seconds", "zones_pruned", "zones_read",
	}
	if got := sortedKeys(templates[0]); !equalStrings(got, wantTemplate) {
		t.Fatalf("template keys = %v, want %v (schema is golden-locked)", got, wantTemplate)
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadSortAndTopK: ?sort picks the ranking dimension and ?k
// truncates after sorting.
func TestWorkloadSortAndTopK(t *testing.T) {
	srv, err := Start("", workloadSource())
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
			t.Fatalf("/workload%s: %v", query, err)
		}
		return snap
	}

	byTime := decode("")
	if byTime.SortedBy != stats.SortTime || byTime.Templates[0].Fingerprint != "SELECT COUNT(*) FROM data WHERE v < ?" {
		t.Fatalf("default sort: sorted_by=%q first=%q", byTime.SortedBy, byTime.Templates[0].Fingerprint)
	}
	byCalls := decode("?sort=calls")
	if byCalls.Templates[0].Fingerprint != "SELECT * FROM data WHERE v = ?" || byCalls.Templates[0].Calls != 3 {
		t.Fatalf("sort=calls first = %q (%d calls)", byCalls.Templates[0].Fingerprint, byCalls.Templates[0].Calls)
	}
	if byCalls.Templates[0].CacheHits != 2 {
		t.Fatalf("cache_hits = %d, want 2", byCalls.Templates[0].CacheHits)
	}
	topOne := decode("?k=1")
	if len(topOne.Templates) != 1 || topOne.TotalTemplates != 2 {
		t.Fatalf("k=1: %d templates shown of %d", len(topOne.Templates), topOne.TotalTemplates)
	}
	all := decode("?k=0")
	if len(all.Templates) != 2 {
		t.Fatalf("k=0 (all): %d templates", len(all.Templates))
	}
}

// TestWorkloadBadParams: invalid sort keys and k values — trailing
// garbage included — are 400s, not silent fallbacks: a typo should be
// loud.
func TestWorkloadBadParams(t *testing.T) {
	srv, err := Start("", workloadSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, query := range []string{"?sort=junk", "?k=-1", "?k=abc", "?k=5x", "?k=7%20junk", "?k=%22%22"} {
		if code, _ := get(t, srv.URL()+"/workload"+query); code != http.StatusBadRequest {
			t.Fatalf("/workload%s = %d, want 400", query, code)
		}
	}
}

// TestWorkloadCSV: ?format=csv is a downloadable spreadsheet with one
// row per template.
func TestWorkloadCSV(t *testing.T) {
	srv, err := Start("", workloadSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/workload?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type = %q, want text/csv", ct)
	}
	recs, err := csv.NewReader(resp.Body).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 templates
		t.Fatalf("CSV rows = %d, want 3", len(recs))
	}
	if recs[0][0] != "fingerprint" {
		t.Fatalf("CSV header starts %q, want fingerprint", recs[0][0])
	}
}

// TestWorkloadNilSource: a server without a stats table still answers
// /workload with an empty, well-formed snapshot (and header-only CSV) —
// dashboards degrade instead of erroring.
func TestWorkloadNilSource(t *testing.T) {
	srv, err := Start("", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/workload")
	if code != http.StatusOK {
		t.Fatalf("/workload = %d, want 200", code)
	}
	var snap stats.WorkloadSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Templates) != 0 || snap.TotalTemplates != 0 {
		t.Fatalf("empty server: %+v", snap)
	}
	code, body = get(t, srv.URL()+"/workload?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(body, "fingerprint,") {
		t.Fatalf("empty CSV = %d:\n%s", code, body)
	}
}
