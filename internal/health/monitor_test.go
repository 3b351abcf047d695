package health

import (
	"encoding/json"
	"testing"
	"time"

	"adskip/internal/obs"
)

// The tests drive the monitor with synthetic ticks whose timestamps are
// injected, so every transition below is deterministic: no wall clock,
// no sampler goroutine.

const testInterval = time.Second

// testConfig uses small windows so burns move within a few ticks:
// short=2, mid=6, long=12 ticks at a 5% budget. With those numbers a
// tick pattern's burn rates are:
//
//	burn_short = bad(2)  / (2·0.05)  = 10.00 · bad(2)
//	burn_mid   = bad(6)  / (6·0.05)  =  3.33 · bad(6)
//	burn_long  = bad(12) / (12·0.05) =  1.67 · bad(12)
//
// so critical (burn ≥ 14.4 on short AND mid) needs ≥2 bad of the last 2
// and ≥5 of the last 6, while warning (burn ≥ 6 on mid AND long) needs
// ≥2 of the last 6 and ≥4 of the last 12.
func testConfig() Config {
	return Config{
		Short: 2 * time.Second, Mid: 6 * time.Second, Long: 12 * time.Second,
		ClearTicks: 3,
	}
}

func testObjectives(t *testing.T, objs []Objective, cfg Config) (*Monitor, *feeder) {
	t.Helper()
	for i := range objs {
		if objs[i].Budget == 0 {
			objs[i].Budget = 0.05
		}
	}
	m, err := New(objs, testInterval, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, &feeder{m: m, t: time.Unix(1700000000, 0)}
}

// feeder maintains the cumulative counter state and pushes one tick per
// call, advancing the injected clock by the tick interval.
type feeder struct {
	m *Monitor
	t time.Time
	s obs.HistorySample
}

// tick applies mut to the cumulative state and delivers one sample.
func (f *feeder) tick(mut func(*obs.HistorySample)) {
	if mut != nil {
		mut(&f.s)
	}
	f.t = f.t.Add(testInterval)
	s := f.s
	s.Time = f.t
	s.LatencyBuckets = append([]int64(nil), f.s.LatencyBuckets...)
	f.m.OnSample(&s)
}

// latBucket records n queries at the given latency into the cumulative
// histogram (bounds are obs.LatencyBuckets: 1µs…10s).
func latBucket(s *obs.HistorySample, seconds float64, n int64) {
	bounds := obs.LatencyBuckets()
	if len(s.LatencyBuckets) == 0 {
		s.LatencyBuckets = make([]int64, len(bounds)+1)
	}
	i := 0
	for i < len(bounds) && bounds[i] < seconds {
		i++
	}
	s.LatencyBuckets[i] += n
	s.Queries += n
}

func fastQueries(n int64) func(*obs.HistorySample) {
	return func(s *obs.HistorySample) { latBucket(s, 500e-6, n) } // ~0.5ms
}

func slowQueries(n int64) func(*obs.HistorySample) {
	return func(s *obs.HistorySample) { latBucket(s, 50e-3, n) } // ~50ms
}

// p95Objective: p95 ≤ 5ms.
func p95Objective() Objective {
	return Objective{Signal: SignalLatencyP95, Threshold: 5e-3}
}

func TestBurnRateEscalation(t *testing.T) {
	m, f := testObjectives(t, []Objective{p95Objective()}, testConfig())
	f.tick(nil) // baseline
	// Healthy traffic never leaves ok.
	for i := 0; i < 12; i++ {
		f.tick(fastQueries(10))
		if got := m.Status(); got != SevOK {
			t.Fatalf("tick %d healthy: status = %v, want ok", i, got)
		}
	}
	// Sustained breach: expect ok → warning (slow burn trips first: 4 bad
	// ticks satisfy mid+long at warn level) → critical (5th bad tick
	// lifts the mid burn past 14.4 with the short window saturated).
	states := []Severity{SevOK, SevOK, SevOK, SevWarning, SevCritical}
	for i, want := range states {
		f.tick(slowQueries(10))
		if got := m.Status(); got != want {
			t.Fatalf("bad tick %d: status = %v, want %v", i+1, got, want)
		}
	}
	snap := m.Snapshot()
	if snap.Status != SevCritical {
		t.Fatalf("snapshot status = %v, want critical", snap.Status)
	}
	obj := snap.Objectives[0]
	if obj.State != SevCritical || obj.Name != "latency_p95" {
		t.Fatalf("objective = %+v", obj)
	}
	if obj.Windows[0].Burn < 14.4 || obj.Windows[1].Burn < 14.4 {
		t.Fatalf("short/mid burns below critical: %+v", obj.Windows)
	}
}

// TestWarmTickAllocatesNothing: once the tick ring has wrapped, every slot
// donates its histogram backing array to the tick that overwrites it and
// the verdict rings hold plain bytes, so steady-state evaluation — the
// per-second cost of having a health monitor at all — is allocation-free.
func TestWarmTickAllocatesNothing(t *testing.T) {
	m, f := testObjectives(t, []Objective{
		p95Objective(),
		{Signal: SignalSkipRate, Threshold: 0.5},
		{Signal: SignalQueueDepth, Threshold: 100},
	}, testConfig())
	for i := 0; i < 2*(m.longT+1); i++ {
		f.tick(fastQueries(10))
	}
	s := f.s
	s.Time = f.t
	allocs := testing.AllocsPerRun(50, func() {
		s.Time = s.Time.Add(testInterval)
		m.OnSample(&s)
	})
	if allocs != 0 {
		t.Fatalf("warm monitor tick allocates %v times, want 0", allocs)
	}
}

func TestHysteresisClears(t *testing.T) {
	m, f := testObjectives(t, []Objective{p95Objective()}, testConfig())
	f.tick(nil)
	for i := 0; i < 5; i++ {
		f.tick(slowQueries(10))
	}
	if m.Status() != SevCritical {
		t.Fatalf("setup: status = %v, want critical", m.Status())
	}
	// One good tick drops the raw severity, but hysteresis holds the
	// state for ClearTicks(=3) consecutive clear ticks.
	f.tick(fastQueries(10))
	if m.Status() != SevCritical {
		t.Fatal("single good tick cleared critical — hysteresis missing")
	}
	f.tick(fastQueries(10))
	if m.Status() != SevCritical {
		t.Fatal("second good tick cleared critical — ClearTicks ignored")
	}
	f.tick(fastQueries(10)) // third consecutive clear tick: step down
	if m.Status() != SevWarning {
		t.Fatalf("after ClearTicks: status = %v, want warning", m.Status())
	}
	// Keep the traffic healthy until the bad ticks age out of the mid and
	// long windows and the warning clears too.
	for i := 0; i < 20 && m.Status() != SevOK; i++ {
		f.tick(fastQueries(10))
	}
	if m.Status() != SevOK {
		t.Fatalf("warning never resolved: %v", m.Status())
	}
	// The alert history must show the full round trip in order.
	hist := m.Alerts().History
	var seq []Severity
	for _, tr := range hist {
		seq = append(seq, tr.To)
	}
	want := []Severity{SevWarning, SevCritical, SevWarning, SevOK}
	if len(seq) != len(want) {
		t.Fatalf("history = %+v, want transitions to %v", hist, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v (history %+v)", i, seq[i], want[i], hist)
		}
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Time.Before(hist[i-1].Time) {
			t.Fatal("history not oldest-first")
		}
	}
}

func TestIdleTicksAreNotBad(t *testing.T) {
	m, f := testObjectives(t, []Objective{p95Objective()}, testConfig())
	f.tick(nil)
	for i := 0; i < 30; i++ {
		f.tick(nil) // no queries at all
	}
	if m.Status() != SevOK {
		t.Fatalf("idle feed: status = %v, want ok", m.Status())
	}
	snap := m.Snapshot()
	if w := snap.Objectives[0].Windows[2]; w.DataTicks != 0 || w.BadTicks != 0 {
		t.Fatalf("idle ticks counted as data: %+v", w)
	}
}

func TestSkipRateLowerIsBad(t *testing.T) {
	obj := Objective{Signal: SignalSkipRate, Threshold: 0.6}
	m, f := testObjectives(t, []Objective{obj}, testConfig())
	f.tick(nil)
	// Healthy skipping: 90% of probed rows pruned.
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) {
			s.RowsSkipped += 9000
			s.RowsScanned += 1000
		})
	}
	if m.Status() != SevOK {
		t.Fatalf("high skip rate: status = %v, want ok", m.Status())
	}
	// Skipping collapses: 10% pruned — below the 60% floor, so ticks go
	// bad and the objective must fire.
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) {
			s.RowsSkipped += 1000
			s.RowsScanned += 9000
		})
	}
	if m.Status() != SevCritical {
		t.Fatalf("collapsed skip rate: status = %v, want critical", m.Status())
	}
}

func TestErrorRateSignal(t *testing.T) {
	obj := Objective{Signal: SignalErrorRate, Threshold: 0.01}
	m, f := testObjectives(t, []Objective{obj}, testConfig())
	f.tick(nil)
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) { s.Queries += 100 })
	}
	if m.Status() != SevOK {
		t.Fatalf("error-free: status = %v, want ok", m.Status())
	}
	// Half of all attempts failing blows a 1% error objective instantly.
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) {
			s.Queries += 50
			s.Errors += 50
		})
	}
	if m.Status() != SevCritical {
		t.Fatalf("50%% errors: status = %v, want critical", m.Status())
	}
	v, ok := m.windowValueForTest(SignalErrorRate, 1)
	if !ok || v != 0.5 {
		t.Fatalf("error rate = %v/%v, want 0.5", v, ok)
	}
}

func TestQueueDepthSignal(t *testing.T) {
	obj := Objective{Signal: SignalQueueDepth, Threshold: 8}
	m, f := testObjectives(t, []Objective{obj}, testConfig())
	f.tick(nil)
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) { s.QueueDepth = 2 })
	}
	if m.Status() != SevOK {
		t.Fatalf("shallow queue: status = %v, want ok", m.Status())
	}
	for i := 0; i < 6; i++ {
		f.tick(func(s *obs.HistorySample) { s.QueueDepth = 40 })
	}
	if m.Status() != SevCritical {
		t.Fatalf("deep queue: status = %v, want critical", m.Status())
	}
	// The window aggregate reports the max depth seen.
	snap := m.Snapshot()
	if v := snap.Objectives[0].Windows[2].Value; v != 40 {
		t.Fatalf("long-window queue value = %v, want 40", v)
	}
}

func TestUnknownSignalRejected(t *testing.T) {
	_, err := New([]Objective{{Signal: "nope", Threshold: 1}}, testInterval, Config{}, nil, nil)
	if err == nil {
		t.Fatal("unknown signal accepted")
	}
	if _, err := New(nil, testInterval, Config{}, nil, nil); err == nil {
		t.Fatal("empty objective list accepted")
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{SevOK, SevWarning, SevCritical} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Fatalf("round trip %v -> %s -> %v (%v)", s, b, back, err)
		}
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"bogus"`), &s); err == nil {
		t.Fatal("bogus severity accepted")
	}
}

func TestParseWindows(t *testing.T) {
	short, mid, long, err := ParseWindows("2s,6s,20s")
	if err != nil || short != 2*time.Second || mid != 6*time.Second || long != 20*time.Second {
		t.Fatalf("ParseWindows = %v,%v,%v (%v)", short, mid, long, err)
	}
	if _, _, _, err := ParseWindows(""); err != nil {
		t.Fatalf("empty spec should be accepted: %v", err)
	}
	for _, bad := range []string{"1s", "1s,2s", "5s,2s,10s", "x,y,z", "1s,2s,3s,4s"} {
		if _, _, _, err := ParseWindows(bad); err == nil {
			t.Fatalf("ParseWindows(%q) accepted", bad)
		}
	}
}

// windowValueForTest exposes windowValue under the monitor lock.
func (m *Monitor) windowValueForTest(sig Signal, w int) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.windowValue(sig, w)
}

// BenchmarkMonitorTick measures the per-tick evaluation cost with three
// objectives — the number DESIGN §10 quotes. It runs entirely on the
// sampler goroutine in production, so this cost never touches a query.
func BenchmarkMonitorTick(b *testing.B) {
	objs := []Objective{
		{Signal: SignalLatencyP95, Threshold: 5e-3},
		{Signal: SignalErrorRate, Threshold: 0.01},
		{Signal: SignalSkipRate, Threshold: 0.5},
	}
	m, err := New(objs, time.Second, Config{}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := obs.HistorySample{
		Time:           time.Unix(1700000000, 0),
		LatencyBuckets: make([]int64, len(obs.LatencyBuckets())+1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Time = s.Time.Add(time.Second)
		s.Queries += 100
		s.LatencyBuckets[3] += 100
		s.RowsSkipped += 90000
		s.RowsScanned += 10000
		m.OnSample(&s)
	}
}
