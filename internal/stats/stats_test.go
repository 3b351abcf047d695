package stats

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"adskip/internal/obs"
)

func sample(fp string, lat time.Duration) Sample {
	return Sample{
		Fingerprint: fp, Table: "data", Latency: lat,
		Cost:         obs.Cost{RowsScanned: 100, RowsSkipped: 900, BytesScanned: 800},
		RowsReturned: 1, ZonesRead: 2, ZonesPruned: 18,
	}
}

func TestRecordAggregates(t *testing.T) {
	tb := New(nil)
	tb.Record(sample("SELECT COUNT(*) FROM data WHERE v < ?", time.Millisecond))
	tb.Record(sample("SELECT COUNT(*) FROM data WHERE v < ?", 3*time.Millisecond))
	s := Sample{Fingerprint: "SELECT COUNT(*) FROM data WHERE v < ?", Table: "data",
		Err: true, Latency: time.Millisecond}
	tb.Record(s)

	snap := tb.Snapshot("", 0)
	if len(snap.Templates) != 1 {
		t.Fatalf("want 1 template, got %d", len(snap.Templates))
	}
	ts := snap.Templates[0]
	if ts.Calls != 3 || ts.Errors != 1 {
		t.Fatalf("calls=%d errors=%d, want 3/1", ts.Calls, ts.Errors)
	}
	if ts.RowsRead != 200 || ts.RowsSkipped != 1800 || ts.ZonesRead != 4 || ts.ZonesPruned != 36 {
		t.Fatalf("row/zone totals wrong: %+v", ts)
	}
	if ts.BytesScanned != 1600 {
		t.Fatalf("bytes_scanned=%d, want 1600", ts.BytesScanned)
	}
	if ts.SkipRatio < 0.89 || ts.SkipRatio > 0.91 {
		t.Fatalf("skip ratio = %f, want 0.9", ts.SkipRatio)
	}
	if ts.P95US <= 0 || ts.TotalSeconds <= 0 || ts.MeanUS <= 0 {
		t.Fatalf("latency aggregates missing: %+v", ts)
	}
	if snap.Recorded != 3 || snap.TotalTemplates != 1 {
		t.Fatalf("snapshot totals wrong: %+v", snap)
	}
}

func TestRecordIgnoresEmptyFingerprint(t *testing.T) {
	tb := New(nil)
	tb.Record(Sample{Latency: time.Millisecond})
	if tb.Len() != 0 {
		t.Fatalf("unfingerprinted sample created a template")
	}
	var nilTable *Table
	nilTable.Record(sample("x", time.Millisecond)) // must not panic
	if got := nilTable.Snapshot("", 0); len(got.Templates) != 0 {
		t.Fatalf("nil table snapshot not empty")
	}
}

func TestLRUEviction(t *testing.T) {
	const bound = DefaultMaxTemplates
	tb := New(nil)
	for i := 0; i < bound+4; i++ { // T0–T3 evicted
		tb.Record(sample(fmt.Sprintf("T%d", i), time.Millisecond))
	}
	// Re-touch T5 so it is MRU, then add one more: T4 is the LRU victim.
	tb.Record(sample("T5", time.Millisecond))
	last := fmt.Sprintf("T%d", bound+4)
	tb.Record(sample(last, time.Millisecond))
	snap := tb.Snapshot(SortCalls, 0)
	if snap.TotalTemplates != bound {
		t.Fatalf("want %d tracked templates, got %d", bound, snap.TotalTemplates)
	}
	if snap.Evicted != 5 {
		t.Fatalf("want 5 evictions, got %d", snap.Evicted)
	}
	have := make(map[string]bool)
	for _, ts := range snap.Templates {
		have[ts.Fingerprint] = true
	}
	if !have["T5"] || !have[last] || have["T4"] {
		t.Fatalf("LRU order wrong, tracked: %v", have)
	}
}

func TestSnapshotSortOrders(t *testing.T) {
	tb := New(nil)
	for i := 0; i < 3; i++ {
		tb.Record(Sample{Fingerprint: "hot", Latency: time.Millisecond, Cost: obs.Cost{BytesScanned: 10}})
	}
	tb.Record(Sample{Fingerprint: "slow", Latency: time.Second, Cost: obs.Cost{BytesScanned: 5}})
	tb.Record(Sample{Fingerprint: "big", Latency: time.Microsecond, Cost: obs.Cost{BytesScanned: 1 << 20}})

	if top := tb.Snapshot(SortTime, 1).Templates[0].Fingerprint; top != "slow" {
		t.Fatalf("sort=time top = %q, want slow", top)
	}
	if top := tb.Snapshot(SortCalls, 1).Templates[0].Fingerprint; top != "hot" {
		t.Fatalf("sort=calls top = %q, want hot", top)
	}
	if top := tb.Snapshot(SortBytes, 1).Templates[0].Fingerprint; top != "big" {
		t.Fatalf("sort=bytes top = %q, want big", top)
	}
	if got := tb.Snapshot("nonsense", 0).SortedBy; got != SortTime {
		t.Fatalf("unknown sort fell back to %q, want %q", got, SortTime)
	}
	if !ValidSort("") || !ValidSort(SortBytes) || ValidSort("nonsense") {
		t.Fatalf("ValidSort misclassifies")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := New(nil)
	tb.Record(sample("SELECT COUNT(*) FROM data WHERE v < ?", time.Millisecond))
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf, "", 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{"fingerprint,table,calls", "SELECT COUNT(*) FROM data WHERE v < ?", ",2,18,800,"} {
		if !bytes.Contains(buf.Bytes(), []byte(needle)) {
			t.Fatalf("CSV missing %q:\n%s", needle, out)
		}
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	tb := New(reg)
	for i := 0; i < DefaultMaxTemplates+2; i++ {
		tb.Record(sample(fmt.Sprintf("T%d", i), time.Millisecond))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, needle := range []string{
		fmt.Sprintf("adskip_stats_templates %d", DefaultMaxTemplates),
		fmt.Sprintf("adskip_stats_recorded_total %d", DefaultMaxTemplates+2),
		"adskip_stats_evicted_total 2",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(needle)) {
			t.Fatalf("metrics missing %q:\n%s", needle, out)
		}
	}
}

// TestConcurrentChurn hammers one table from parallel "sessions" with a
// template pool larger than the LRU bound, so recording, snapshotting,
// and eviction churn race. Run under -race in CI.
func TestConcurrentChurn(t *testing.T) {
	tb := New(obs.NewRegistry())
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				fp := fmt.Sprintf("T%d", (w*7+i)%(2*DefaultMaxTemplates))
				s := sample(fp, time.Duration(i%5)*time.Millisecond)
				s.Err = i%17 == 0
				tb.Record(s)
				if i%50 == 0 {
					_ = tb.Snapshot(SortCalls, 5)
				}
				if i%101 == 0 {
					_ = tb.WriteCSV(&bytes.Buffer{}, SortBytes, 3)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := tb.Snapshot("", 0)
	if snap.Recorded != workers*perW {
		t.Fatalf("recorded %d samples, want %d", snap.Recorded, workers*perW)
	}
	if snap.TotalTemplates != DefaultMaxTemplates {
		t.Fatalf("tracked %d templates, want %d (LRU bound)", snap.TotalTemplates, DefaultMaxTemplates)
	}
	var calls int64
	for _, ts := range snap.Templates {
		calls += ts.Calls
	}
	if calls <= 0 || calls > int64(workers*perW) {
		t.Fatalf("surviving call total %d out of range", calls)
	}
}

// BenchmarkRecord is the overhead figure quoted in DESIGN §12: the cost
// of attributing one query to its template.
func BenchmarkRecord(b *testing.B) {
	tb := New(nil)
	s := sample("SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?", 120*time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Record(s)
	}
}
