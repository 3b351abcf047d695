package bench

import (
	"math"
	"slices"
	"time"
)

// recorder holds raw latency samples in nanoseconds. The backing array is
// allocated once, before the timed window, so recording never allocates;
// percentiles are exact (sorted raw samples, nearest rank), unlike the
// ~25%-wide log buckets of internal/loadgen, which are coarser than every
// bound this benchmark gates on.
type recorder struct {
	ns []int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{ns: make([]int64, 0, capacity)}
}

// add records one sample. Capacities are sized from the fixed operation
// counts, so a sample beyond capacity means a miscounted window: it is
// still kept (one allocation) rather than silently dropped.
func (r *recorder) add(ns int64) { r.ns = append(r.ns, ns) }

func (r *recorder) len() int { return len(r.ns) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) in
// nanoseconds, 0 when empty. It sorts a copy: sample order is kept for
// slicing.
func (r *recorder) percentile(p float64) float64 {
	return percentileOf(slices.Clone(r.ns), p)
}

func percentileOf(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	rank := int(math.Ceil(p/100*float64(len(ns)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(ns[rank])
}

func (r *recorder) sum() int64 {
	var s int64
	for _, v := range r.ns {
		s += v
	}
	return s
}

// spread is a value with the range it was the median of.
type spread struct{ median, min, max float64 }

// medianOf returns the median of vals with their min and max. An even
// count averages the middle pair.
func medianOf(vals []float64) spread {
	if len(vals) == 0 {
		return spread{}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{median: m, min: s[0], max: s[len(s)-1]}
}

// window is the timing record of one driver's timed window, cut into
// windowSlices equal slices by operation count.
type window struct {
	lat  *recorder // latency samples in operation order
	unit int       // operations per driver iteration (1, or a whole ingest cycle)

	latAt [windowSlices + 1]int // latency samples recorded at each slice boundary
	ops   [windowSlices]int     // operations completed in each slice
	wall  [windowSlices]float64 // seconds each slice took
}

func newWindow(latencies, unit int) *window {
	return &window{lat: newRecorder(latencies), unit: unit}
}

// add records one latency.
func (w *window) add(d time.Duration) { w.lat.add(d.Nanoseconds()) }

// run drives iterations 0..n-1 through the window slice by slice. iter
// times its own operations and hands them to add; nothing run does inside
// a slice allocates.
func (w *window) run(n int, iter func(i int)) {
	for k := 0; k < windowSlices; k++ {
		lo, hi := k*n/windowSlices, (k+1)*n/windowSlices
		start := time.Now()
		for i := lo; i < hi; i++ {
			iter(i)
		}
		w.wall[k] = time.Since(start).Seconds()
		w.ops[k] = (hi - lo) * w.unit
		w.latAt[k+1] = w.lat.len()
	}
}

// windowMetrics turns the timed windows of a run's drivers (one per
// connection) into the caller-observed latency and throughput metrics, and
// logs them with their sample counts. A metric is the median of its
// per-slice values, so one disturbed slice does not move it. Throughput of a
// slice is the sum over drivers of operations completed per second of that
// driver's slice.
func windowMetrics(e *env, ws []*window) map[string]float64 {
	var p50, p95, rate []float64
	var all []int64
	for k := 0; k < windowSlices; k++ {
		var merged []int64
		r := 0.0
		for _, w := range ws {
			merged = append(merged, w.lat.ns[w.latAt[k]:w.latAt[k+1]]...)
			r += float64(w.ops[k]) / w.wall[k]
		}
		p50 = append(p50, percentileOf(merged, 50)/1e3)
		p95 = append(p95, percentileOf(merged, 95)/1e3)
		rate = append(rate, r)
		all = append(all, merged...)
	}
	m := map[string]float64{}
	for _, x := range []struct {
		name string
		vals []float64
	}{{"query_p50_us", p50}, {"query_p95_us", p95}, {"queries_per_s", rate}} {
		s := medianOf(x.vals)
		m[x.name] = s.median
		e.logf("%s: median %.3f of %d slices (min %.3f max %.3f)", x.name, s.median, windowSlices, s.min, s.max)
	}
	wall := 0.0
	for _, w := range ws {
		t := 0.0
		for _, s := range w.wall {
			t += s
		}
		wall = max(wall, t)
	}
	e.logf("window: %d latency samples (%d per slice) in %.2fs; p99 %.1fus max %.1fus (not gated)",
		len(all), len(all)/windowSlices, wall, percentileOf(all, 99)/1e3, percentileOf(all, 100)/1e3)
	return m
}
