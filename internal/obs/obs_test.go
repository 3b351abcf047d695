package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("g", "help", L("a", "1"))
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Different labels are a different series.
	if r.Gauge("g", "help", L("a", "2")) == g {
		t.Fatal("distinct label sets shared a series")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 556.5 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	// Buckets are "le": 1 catches {0.5, 1}, 10 catches {5}, 100 catches
	// {50}, overflow catches {500}.
	want := []int64{2, 1, 1, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two kinds did not panic")
		}
	}()
	r.Gauge("m", "help")
}

// goldenRegistry builds the small fixture behind the exposition golden.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests.", L("table", "t")).Add(3)
	r.Gauge("test_temp", "Temp.").Set(-2)
	h := r.Histogram("test_lat_seconds", "Latency.", []float64{0.5, 1, 2.5})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(7)
	return r
}

func TestGoldenPrometheus(t *testing.T) {
	const want = `# HELP test_lat_seconds Latency.
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.5"} 1
test_lat_seconds_bucket{le="1"} 2
test_lat_seconds_bucket{le="2.5"} 2
test_lat_seconds_bucket{le="+Inf"} 3
test_lat_seconds_sum 8
test_lat_seconds_count 3
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{table="t"} 3
# HELP test_temp Temp.
# TYPE test_temp gauge
test_temp -2
`
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestGaugeFunc: a GaugeFunc series renders as a gauge whose value is read
// at exposition time, outside the registry mutex (fn here registers a
// counter, which would deadlock inside it); registering it again replaces
// fn, and a plain Gauge on the same series replaces the function.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := int64(3)
	r.GaugeFunc("q_depth", "Depth.", func() int64 {
		r.Counter("scrapes_total", "Scrapes.").Inc()
		return depth
	}, L("q", "a"))
	scrape := func() string {
		t.Helper()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if got := scrape(); !strings.Contains(got, "# TYPE q_depth gauge\nq_depth{q=\"a\"} 3\n") {
		t.Fatalf("first scrape:\n%s", got)
	}
	depth = 5
	if got := scrape(); !strings.Contains(got, `q_depth{q="a"} 5`) || !strings.Contains(got, "scrapes_total 2") {
		t.Fatalf("second scrape did not re-read fn:\n%s", got)
	}
	r.GaugeFunc("q_depth", "Depth.", func() int64 { return -1 }, L("q", "a"))
	if got := scrape(); !strings.Contains(got, `q_depth{q="a"} -1`) {
		t.Fatalf("re-registration did not replace fn:\n%s", got)
	}
	r.Gauge("q_depth", "Depth.", L("q", "a")).Set(9)
	if got := scrape(); !strings.Contains(got, `q_depth{q="a"} 9`) {
		t.Fatalf("Gauge did not replace the function series:\n%s", got)
	}
}

// TestEventKindStrings: every kind has a name, and the name survives a
// JSON round trip — String, MarshalJSON and UnmarshalJSON share one table,
// so a kind added to it cannot render without also parsing.
func TestEventKindStrings(t *testing.T) {
	if len(eventKindNames) != int(EventQuarantine)+1 {
		t.Fatalf("%d names for %d kinds", len(eventKindNames), int(EventQuarantine)+1)
	}
	for i, want := range eventKindNames {
		k := EventKind(i)
		if want == "" || k.String() != want {
			t.Fatalf("EventKind(%d).String() = %q, table says %q", i, k.String(), want)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(b, &back); err != nil || back != k {
			t.Fatalf("%s round-tripped to %v (err %v)", b, back, err)
		}
	}
	if got := EventKind(len(eventKindNames)).String(); !strings.HasPrefix(got, "EventKind(") {
		t.Fatalf("out-of-range kind renders %q", got)
	}
	var k EventKind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Fatal("unknown kind name decoded without error")
	}
}

func TestTraceLines(t *testing.T) {
	tr := &QueryTrace{
		Table: "t", RowsTotal: 1000,
		Cost: Cost{RowsScanned: 100, RowsSkipped: 800, RowsCovered: 100, ZonesProbed: 16},
		Predicates: []PredicateTrace{{
			Column: "v", Predicate: "[10, 20]", Skipper: "adaptive-zonemap",
			Cost: Cost{SkippersUsed: 1, ZonesProbed: 16, Windows: 3, CoveredWindows: 1,
				CandidateRows: 200, RowsCovered: 100, RowsSkipped: 800}, Matched: 42,
		}},
	}
	lines := tr.Lines(false)
	want := []string{
		`trace: table "t", 1000 rows`,
		`probe: 16 zone probes`,
		`scan: scanned 100, covered 100, skipped 800 rows`,
		`predicate on "v": [10, 20] — adaptive-zonemap skipper: 16 zone probes, est. 800 rows skippable (80.0%), 3 windows (1 covered, 200 candidate rows, 100 rows covered); actual matched 42`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got  %q\n want %q", i, lines[i], want[i])
		}
	}
	// With timings every phase appears, and String carries them too.
	timed := strings.Join(tr.Lines(true), "\n")
	for _, phase := range []string{"phase plan", "phase probe", "phase scan", "phase feedback", "total"} {
		if !strings.Contains(timed, phase) {
			t.Errorf("timed trace missing %q:\n%s", phase, timed)
		}
	}
	if tr.String() != timed {
		t.Error("String() differs from joined timed lines")
	}
}

// TestRegistryConcurrent hammers registration (GaugeFunc re-registration
// included), updates, and exposition from many goroutines; run under -race this proves the registry's locking
// discipline (mutex on structure, atomics on values).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := []string{"a_total", "b_total"}[id%2]
			c := r.Counter(name, "help", L("w", string(rune('a'+id))))
			h := r.Histogram("h_seconds", "help", []float64{0.01, 0.1, 1})
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.05)
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		n := int64(i)
		r.GaugeFunc("f", "help", func() int64 { return n })
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkQueryTraceRecord documents the per-query cost of the trace the
// engine allocates for every query: one QueryTrace + a one-predicate
// slice, phase stamps, and the counter/histogram updates finishTrace
// performs. This is the entire per-query observability overhead; nothing
// is recorded per row.
func BenchmarkQueryTraceRecord(b *testing.B) {
	r := NewRegistry()
	queries := r.Counter("adskip_queries_total", "help", L("table", "t"))
	scanned := r.Counter("adskip_rows_scanned_total", "help", L("table", "t"))
	skipped := r.Counter("adskip_rows_skipped_total", "help", L("table", "t"))
	lat := r.Histogram("adskip_query_seconds", "help", []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}, L("table", "t"))
	sel := r.Histogram("adskip_query_selectivity", "help", []float64{1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1}, L("table", "t"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &QueryTrace{Table: "t", Start: time.Now()}
		tr.Plan = time.Since(tr.Start)
		tr.Predicates = make([]PredicateTrace, 1)
		tr.Predicates[0] = PredicateTrace{Column: "v", Skipper: "adaptive-zonemap", Cost: Cost{SkippersUsed: 1}, Matched: -1}
		tr.RowsScanned, tr.RowsSkipped, tr.RowsTotal = 1024, 64512, 65536
		tr.Total = time.Since(tr.Start)
		queries.Inc()
		scanned.Add(int64(tr.RowsScanned))
		skipped.Add(int64(tr.RowsSkipped))
		lat.Observe(tr.Total.Seconds())
		sel.Observe(0.01)
		sink = tr
	}
}

// sink defeats dead-code elimination in benchmarks.
var sink interface{}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram([]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func TestTraceRingWrap(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 7; i++ {
		r.Append(&QueryTrace{Table: fmt.Sprintf("t%d", i)})
	}
	r.Append(nil) // ignored
	if got := r.Total(); got != 7 {
		t.Fatalf("total = %d, want 7", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	snap := r.Snapshot()
	for i, tr := range snap {
		if want := fmt.Sprintf("t%d", i+3); tr.Table != want {
			t.Fatalf("snapshot[%d] = %q, want %q (oldest-first order broken)", i, tr.Table, want)
		}
	}
}

// TestPrometheusLabelDeterminism locks the exposition rule the telemetry
// endpoint depends on: label keys render sorted within every series line,
// including the synthetic "le" key merged into histogram bucket lines at
// its sorted position (between "aa" and "zz" here).
func TestPrometheusLabelDeterminism(t *testing.T) {
	r := NewRegistry()
	// Register with deliberately unsorted label order.
	h := r.Histogram("det_seconds", "help", []float64{1, 2}, L("zz", "b"), L("aa", "a"))
	h.Observe(0.5)
	h.Observe(1.5)
	r.Counter("det_total", "help", L("b", "2"), L("a", "1")).Inc()
	const want = `# HELP det_seconds help
# TYPE det_seconds histogram
det_seconds_bucket{aa="a",le="1",zz="b"} 1
det_seconds_bucket{aa="a",le="2",zz="b"} 2
det_seconds_bucket{aa="a",le="+Inf",zz="b"} 2
det_seconds_sum{aa="a",zz="b"} 2
det_seconds_count{aa="a",zz="b"} 2
# HELP det_total help
# TYPE det_total counter
det_total{a="1",b="2"} 1
`
	for i := 0; i < 3; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if sb.String() != want {
			t.Fatalf("exposition (pass %d):\n--- got ---\n%s--- want ---\n%s", i, sb.String(), want)
		}
	}
}

func TestDefaultBucketsCloned(t *testing.T) {
	a := LatencyBuckets()
	a[0] = -1
	if b := LatencyBuckets(); b[0] == -1 {
		t.Fatal("LatencyBuckets returned a shared slice; callers can corrupt the defaults")
	}
	for _, bs := range [][]float64{LatencyBuckets(), RowCountBuckets(), RatioBuckets()} {
		if len(bs) == 0 {
			t.Fatal("empty default bucket set")
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("bucket bounds not strictly increasing: %v", bs)
			}
		}
	}
}
