package stats

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"adskip/internal/obs"
)

func skipSample(fp string, read, skipped int64) Sample {
	return Sample{Fingerprint: fp, Table: "data", Latency: time.Millisecond,
		Cost: obs.Cost{RowsScanned: int(read), RowsSkipped: int(skipped)}}
}

// A fresh template's first observation seeds both EWMAs, so it must not
// report a gap no matter how bad its first skip rate is.
func TestSkipRegressionWarmStart(t *testing.T) {
	tb := New(nil)
	tb.Record(skipSample("q1", 1000, 0)) // 0% skip, first sample
	if gap := tb.RegressionGap(); gap != 0 {
		t.Fatalf("RegressionGap after warm start = %v, want 0", gap)
	}
	snap := tb.Snapshot("", 0)
	ts := snap.Templates[0]
	if ts.SkipFast != 0 || ts.SkipBase != 0 || ts.SkipRegression != 0 {
		t.Fatalf("warm start EWMAs = fast %v base %v gap %v, want all 0", ts.SkipFast, ts.SkipBase, ts.SkipRegression)
	}
}

// A template that prunes well, then abruptly stops pruning, must open a
// gap: the fast EWMA chases the collapse while the slow baseline
// remembers what the template used to achieve.
func TestSkipRegressionDetectsCollapse(t *testing.T) {
	tb := New(nil)
	for i := 0; i < 50; i++ {
		tb.Record(skipSample("q1", 100, 900)) // steady 90% skip
	}
	if gap := tb.RegressionGap(); gap != 0 {
		t.Fatalf("steady workload opened a gap: %v", gap)
	}
	for i := 0; i < 10; i++ {
		tb.Record(skipSample("q1", 1000, 0)) // pruning collapses to 0%
	}
	gap := tb.RegressionGap()
	if gap < 0.5 {
		t.Fatalf("RegressionGap after collapse = %v, want > 0.5 (base ~0.9, fast near 0)", gap)
	}
	ts := tb.Snapshot("", 0).Templates[0]
	// After 10 zero-skip samples the baseline has decayed by (1−0.02)^10
	// ≈ 0.82 of its 0.9 steady state — still ~0.73 while the fast EWMA
	// has all but reached zero.
	if ts.SkipBase < 0.7 {
		t.Fatalf("baseline forgot too fast: %v", ts.SkipBase)
	}
	if ts.SkipFast > 0.1 {
		t.Fatalf("fast EWMA chased too slowly: %v", ts.SkipFast)
	}
	if math.Abs(ts.SkipRegression-gap) > 1e-9 {
		t.Fatalf("snapshot gap %v != table gap %v", ts.SkipRegression, gap)
	}
}

// The gap must close again once pruning recovers — the detector is a
// hysteresis input, not a latch.
func TestSkipRegressionRecovers(t *testing.T) {
	tb := New(nil)
	for i := 0; i < 50; i++ {
		tb.Record(skipSample("q1", 100, 900))
	}
	for i := 0; i < 10; i++ {
		tb.Record(skipSample("q1", 1000, 0))
	}
	if gap := tb.RegressionGap(); gap < 0.5 {
		t.Fatalf("collapse not detected: %v", gap)
	}
	for i := 0; i < 50; i++ {
		tb.Record(skipSample("q1", 100, 900))
	}
	if gap := tb.RegressionGap(); gap > 0.05 {
		t.Fatalf("gap did not close after recovery: %v", gap)
	}
}

// A template that improves (fast above baseline) must not register as a
// regression, and the worst template wins across the table.
func TestSkipRegressionWorstTemplateWins(t *testing.T) {
	tb := New(nil)
	// q-up starts poor and improves: fast > base, gap clamped to 0.
	tb.Record(skipSample("q-up", 1000, 0))
	for i := 0; i < 20; i++ {
		tb.Record(skipSample("q-up", 100, 900))
	}
	// q-down regresses mildly, q-worse regresses hard.
	for i := 0; i < 50; i++ {
		tb.Record(skipSample("q-down", 100, 900))
		tb.Record(skipSample("q-worse", 50, 950))
	}
	for i := 0; i < 3; i++ {
		tb.Record(skipSample("q-down", 300, 700)) // 70%: small dip
	}
	for i := 0; i < 10; i++ {
		tb.Record(skipSample("q-worse", 1000, 0)) // total collapse
	}
	gap := tb.RegressionGap()
	if gap < 0.5 {
		t.Fatalf("worst gap = %v, want the q-worse collapse (> 0.5)", gap)
	}
	var worst float64
	for _, ts := range tb.Snapshot("", 0).Templates {
		if ts.SkipRegression > worst {
			worst = ts.SkipRegression
		}
	}
	if math.Abs(worst-gap) > 1e-9 {
		t.Fatalf("RegressionGap %v != worst snapshot gap %v", gap, worst)
	}
}

// A scrape reads the ppm gauge from the table itself: nothing has to call
// RegressionGap first for /metrics to show the regression.
func TestSkipRegressionGauge(t *testing.T) {
	reg := obs.NewRegistry()
	tb := New(reg)
	for i := 0; i < 50; i++ {
		tb.Record(skipSample("q1", 100, 900))
	}
	for i := 0; i < 10; i++ {
		tb.Record(skipSample("q1", 1000, 0))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const series = "adskip_adapt_skip_regression_ppm "
	var got int64 = -1
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			got, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	gap := tb.RegressionGap()
	if want := int64(gap * 1e6); got != want || got <= 0 {
		t.Fatalf("scraped gauge = %d ppm, want %d (> 0)\n%s", got, want, sb.String())
	}
	// Queries with nothing to scan must not move the EWMAs.
	tb.Record(Sample{Fingerprint: "q1", Table: "data", Latency: time.Millisecond})
	if after := tb.RegressionGap(); math.Abs(after-gap) > 1e-9 {
		t.Fatalf("zero-row sample moved the gap: %v -> %v", gap, after)
	}
}
