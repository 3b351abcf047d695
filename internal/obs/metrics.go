// Package obs is the engine-wide observability layer: an atomic metrics
// registry (counters, gauges, fixed-bucket histograms), per-query traces
// with phase timings, and a bounded adaptation-event log.
//
// The package is zero-dependency (standard library only) and built for an
// always-on deployment: reading or bumping a metric on the scan path is a
// single atomic operation on a pointer the caller resolved once at setup
// time — no map lookups, no locks, no per-row allocation. Registration
// (Counter/Gauge/GaugeFunc/Histogram lookups by name) takes a mutex and is
// meant for cold paths only.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter to stay monotonic;
// this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with atomic bucket counters and a
// lock-free running sum. Bucket i counts observations v <= Bounds[i]; one
// implicit overflow bucket catches the rest (+Inf).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the "le" bucket
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns per-bucket counts aligned with Bounds, plus one
// final overflow (+Inf) entry.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// QuantileFromBuckets estimates the q-th quantile (q in [0,1]) from
// fixed-bucket counts (len(bounds)+1 entries, last = overflow), linearly
// interpolating within the winning bucket. Estimates are bounded by one
// bucket width; the overflow bucket reports the top finite bound.
func QuantileFromBuckets(bounds []float64, buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range buckets {
		prev := cum
		cum += c
		if float64(cum) < target {
			continue
		}
		if i >= len(bounds) { // overflow bucket: no finite upper bound
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		frac := (target - float64(prev)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// Label is one name=value dimension of a metric series (e.g. the table or
// column a counter is scoped to).
type Label struct {
	Key, Value string
}

// L is a convenience constructor for Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates registry families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family.
type series struct {
	labels    string  // rendered {k="v",...} or ""
	labelList []Label // sorted by key; retained so exposition can merge
	// extra labels (a histogram's "le") in sorted key order.
	c  *Counter
	g  *Gauge
	fn func() int64 // a GaugeFunc series: g is nil, the value is fn()
	h  *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; Counter/Gauge/Histogram get-or-create their series under
// a mutex, so callers should resolve pointers once and cache them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// sortLabels returns a copy of labels sorted by key.
func sortLabels(labels []Label) []Label {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// renderSorted produces the canonical {k="v",...} form from an
// already-sorted label list, or "".
func renderSorted(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// getFamily returns the family for name, creating it with the given kind
// and help text. Registering the same name with a different kind panics:
// that is a programming error the process should not limp past.
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter)
	ls := sortLabels(labels)
	key := renderSorted(ls)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, labelList: ls, c: &Counter{}}
		f.series[key] = s
	}
	return s.c
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	ls := sortLabels(labels)
	key := renderSorted(ls)
	s, ok := f.series[key]
	if !ok || s.g == nil { // a GaugeFunc series is replaced, like a re-registered GaugeFunc
		s = &series{labels: key, labelList: ls, g: &Gauge{}}
		f.series[key] = s
	}
	return s.g
}

// GaugeFunc registers the gauge series name{labels} with the value fn(),
// read each time the registry is exposed: instantaneous state its owner
// already keeps (a queue length, a lag) needs no copy on a timer. fn runs
// outside the registry mutex, so it may take the owner's locks.
// Registering the series again replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge)
	ls := sortLabels(labels)
	key := renderSorted(ls)
	// A fresh series, never a mutated one: exposition reads series after
	// the mutex is released.
	f.series[key] = &series{labels: key, labelList: ls, fn: fn}
}

// Histogram returns (creating if needed) the histogram series name{labels}
// with the given bucket upper bounds. Bounds are fixed by the first
// registration; later calls reuse the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram)
	ls := sortLabels(labels)
	key := renderSorted(ls)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, labelList: ls, h: newHistogram(bounds)}
		f.series[key] = s
	}
	return s.h
}

// familySnapshot is a point-in-time view of one family for exposition:
// the series list is copied under the registry mutex (series maps mutate
// on registration), while the metric values themselves are read atomically
// afterwards.
type familySnapshot struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// snapshot copies the registry structure in deterministic (name, label)
// order.
func (r *Registry) snapshot() []familySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := familySnapshot{name: f.name, help: f.help, kind: f.kind}
		fs.series = make([]*series, 0, len(f.series))
		for _, s := range f.series {
			fs.series = append(fs.series, s)
		}
		sort.Slice(fs.series, func(i, j int) bool { return fs.series[i].labels < fs.series[j].labels })
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
