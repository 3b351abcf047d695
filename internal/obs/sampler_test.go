package obs

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSamplerSlotDonation covers what the sampler adds on top of Ring
// (whose wrap arithmetic TestRing covers): each tick sorts its columns,
// a wrapped ring's evicted slot donates its Columns backing array so a
// warm tick allocates nothing, and Snapshot deep-copies so readers never
// alias a slot the next tick rewrites.
func TestSamplerSlotDonation(t *testing.T) {
	var n int64
	s := NewSampler(time.Hour, 4, func(h *HistorySample) {
		n++
		h.Queries = n
		// Deliberately unsorted: the sampler must sort.
		h.Columns = append(h.Columns,
			HistoryColumn{Table: "t", Column: "z"},
			HistoryColumn{Table: "a", Column: "b"},
			HistoryColumn{Table: "t", Column: "a"},
		)
	})
	defer s.Stop()
	// The constructor took sample #1; the hour-long ticker never fires, so
	// every further tick is driven from here.
	for n < 10 {
		s.sample()
	}
	if s.Len() != 4 || s.Total() != 10 {
		t.Fatalf("Len/Total = %d/%d, want 4/10", s.Len(), s.Total())
	}
	snap := s.Snapshot()
	for i, h := range snap {
		if want := int64(7 + i); h.Queries != want {
			t.Fatalf("sample %d carries fill #%d, want #%d", i, h.Queries, want)
		}
		if len(h.Columns) != 3 {
			t.Fatalf("sample %d: %d columns, want 3 (stale slot state leaked)", i, len(h.Columns))
		}
		for j := 1; j < len(h.Columns); j++ {
			if !columnLess(&h.Columns[j-1], &h.Columns[j]) {
				t.Fatalf("sample %d columns unsorted: %+v", i, h.Columns)
			}
		}
	}
	snap[0].Columns[0].Table = "mutated"
	if s.Snapshot()[0].Columns[0].Table == "mutated" {
		t.Fatal("Snapshot shares column backing arrays with the ring")
	}
	if allocs := testing.AllocsPerRun(50, s.sample); allocs != 0 {
		t.Fatalf("warm sampler tick allocates %v times, want 0", allocs)
	}
}

// TestSamplerFirstSampleImmediate: History is never empty, even before
// the first tick.
func TestSamplerFirstSampleImmediate(t *testing.T) {
	s := NewSampler(time.Hour, 8, func(h *HistorySample) { h.Queries = 42 })
	defer s.Stop()
	if s.Len() != 1 || s.Total() != 1 {
		t.Fatalf("Len=%d Total=%d right after NewSampler, want 1/1", s.Len(), s.Total())
	}
	if got := s.Snapshot()[0].Queries; got != 42 {
		t.Fatalf("first sample not filled: Queries=%d", got)
	}
}

// TestSamplerStopIdempotent: Stop joins the goroutine and is safe to
// call repeatedly and concurrently.
func TestSamplerStopIdempotent(t *testing.T) {
	s := NewSampler(time.Millisecond, 4, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Stop() }()
	}
	wg.Wait()
	s.Stop()
	if s.Len() < 1 {
		t.Fatal("nil fill should still record empty samples")
	}
}

// TestSamplerStopUnsubscribes: Stop halts the sampling goroutine — and
// with it every later fill callback — without leaking the goroutine.
func TestSamplerStopUnsubscribes(t *testing.T) {
	before := runtime.NumGoroutine()
	var fills atomic.Int64
	s := NewSampler(time.Millisecond, 8, func(*HistorySample) { fills.Add(1) })

	deadline := time.Now().Add(5 * time.Second)
	for fills.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sampler never ticked (%d fills)", fills.Load())
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	n := fills.Load()
	time.Sleep(10 * time.Millisecond)
	if got := fills.Load(); got != n {
		t.Fatalf("fill ran %d more times after Stop", got-n)
	}
	// The sampling goroutine is joined by Stop; the count must settle
	// back to (at most) where it started.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after Stop", before, runtime.NumGoroutine())
}

// TestHistorySampleGoldenJSON locks the serialized shape of one timeline
// sample — key names and order — so /history consumers (the dashboard,
// scripts scraping the endpoint) can't be broken by a silent rename.
func TestHistorySampleGoldenJSON(t *testing.T) {
	const want = `{
  "time": "2026-01-02T03:04:05Z",
  "queries": 100,
  "rows_scanned": 2000,
  "rows_skipped": 8000,
  "rows_covered": 50,
  "slow_queries": 1,
  "errors": 2,
  "queue_depth": 3,
  "skip_ratio": 0.8,
  "latency_p50_seconds": 0.0001,
  "latency_p95_seconds": 0.002,
  "adapt_events": 17,
  "wal_lag_seconds": 0.004,
  "skip_regression": 0,
  "columns": [
    {
      "table": "data",
      "column": "v",
      "skip_ratio": 0.9,
      "zones": 64,
      "enabled": true
    }
  ]
}`
	h := HistorySample{
		Time:    time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC),
		Queries: 100, RowsScanned: 2000, RowsSkipped: 8000, RowsCovered: 50,
		SlowQueries: 1, Errors: 2, QueueDepth: 3, SkipRatio: 0.8,
		LatencyP50: 0.0001, LatencyP95: 0.002, AdaptEvents: 17, WALLagSeconds: 0.004,
		Columns: []HistoryColumn{{Table: "data", Column: "v", SkipRatio: 0.9, Zones: 64, Enabled: true}},
	}
	got, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("history sample JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// BenchmarkSamplerTick measures one timeline sample end to end (slot
// reuse, fill, column sort). The steady state must not allocate: the
// ring recycles slots and their Columns backing arrays.
func BenchmarkSamplerTick(b *testing.B) {
	s := NewSampler(time.Hour, 64, func(h *HistorySample) {
		h.Queries = 1
		h.Columns = append(h.Columns,
			HistoryColumn{Table: "t", Column: "d"},
			HistoryColumn{Table: "t", Column: "c"},
			HistoryColumn{Table: "t", Column: "b"},
			HistoryColumn{Table: "t", Column: "a"},
		)
	})
	defer s.Stop()
	for i := 0; i < 70; i++ {
		s.sample() // warm the ring past capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.sample()
	}
}
