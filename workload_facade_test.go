package adskip

import (
	"context"
	"strings"
	"testing"
)

// TestWorkloadThroughFacade: queries executed through the public API are
// fingerprinted and aggregated per template — parameterized variants of
// the same shape collapse into one row, distinct shapes stay apart.
func TestWorkloadThroughFacade(t *testing.T) {
	db, _ := demoDB(t, Adaptive)

	// Three literal variants of one template, plus one distinct shape.
	for _, q := range []string{
		"SELECT COUNT(*) FROM sales WHERE price < 16",
		"select count(*) from sales where price < 50",
		"SELECT  COUNT(*)  FROM sales WHERE price < 8.5",
		"SELECT COUNT(*) FROM sales WHERE city = 'oslo'",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	snap := db.Workload(SortCalls, 0)
	if snap.TotalTemplates != 2 {
		t.Fatalf("templates = %d, want 2 (variants must collapse):\n%+v", snap.TotalTemplates, snap)
	}
	if snap.Recorded != 4 {
		t.Fatalf("recorded calls = %d, want 4", snap.Recorded)
	}
	top := snap.Templates[0]
	if top.Fingerprint != "SELECT COUNT(*) FROM sales WHERE price < ?" || top.Calls != 3 {
		t.Fatalf("top template = %q with %d calls, want the price template with 3", top.Fingerprint, top.Calls)
	}
	if top.Table != "sales" {
		t.Fatalf("template table = %q, want sales", top.Table)
	}
	if top.RowsReturned != 3+4+1 { // matches per variant: <16, <50, <8.5
		t.Fatalf("rows returned = %d, want 8", top.RowsReturned)
	}
	if top.TotalSeconds <= 0 || top.MeanUS <= 0 {
		t.Fatalf("latency not aggregated: %+v", top)
	}

	// Single-template lookup mirrors the facade snapshot.
	one, ok := db.stats.Template(top.Fingerprint)
	if !ok || one.Calls != 3 {
		t.Fatalf("Template lookup: ok=%v calls=%d", ok, one.Calls)
	}

	// The stats metrics registered on the DB registry.
	var prom strings.Builder
	if err := db.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"adskip_stats_templates 2", "adskip_stats_recorded_total 4"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestWorkloadExplainAnalyzeFooter: an attributed EXPLAIN ANALYZE gains
// the per-template workload footer.
func TestWorkloadExplainAnalyzeFooter(t *testing.T) {
	db, _ := demoDB(t, Adaptive)
	if _, err := db.Exec("SELECT COUNT(*) FROM sales WHERE price < 16"); err != nil {
		t.Fatal(err)
	}
	lines, _, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM sales WHERE price < 99")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, `workload: template "SELECT COUNT(*) FROM sales WHERE price < ?" — 2 calls`) {
		t.Fatalf("missing workload footer:\n%s", joined)
	}
}
