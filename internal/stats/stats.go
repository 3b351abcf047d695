// Package stats is the workload-analytics layer: a bounded, concurrency-
// safe table of per-query-template statistics, in the spirit of
// pg_stat_statements. The adskip facade records one Sample per logical
// query under the query's fingerprint (the literal-stripped template
// rendered by internal/sql); this package aggregates calls, errors,
// latency histograms and row/zone/byte counts.
//
// The table is LRU-bounded: when a workload carries more distinct
// templates than DefaultMaxTemplates, the least-recently-called template is
// evicted (its history is lost and counted in EvictedTemplates).
package stats

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"adskip/internal/obs"
)

// DefaultMaxTemplates bounds the number of distinct templates a table
// tracks; the least-recently-called template is evicted beyond it.
const DefaultMaxTemplates = 256

// Skip-regression EWMA steps. The fast average converges in a few
// queries (α=0.3 → ~5-query window) so a genuine regression is visible
// quickly; the baseline moves two orders slower (α=0.02 → ~100-query
// window) so it remembers what the template achieved before the drop
// instead of chasing it down.
const (
	skipFastAlpha = 0.3
	skipBaseAlpha = 0.02
)

// Sample is one executed (or failed) query, already attributed to a
// template by the caller.
type Sample struct {
	Fingerprint string
	Table       string
	Err         bool // the query failed; only Latency is aggregated
	CacheHit    bool // served from a statement cache
	Latency     time.Duration
	// Cost is the query's counted work: the rows it read (scanned) and
	// skipped, its bytes scanned, and on a sharded table its shards
	// scanned and pruned.
	Cost         obs.Cost
	RowsReturned int64 // rows (or groups) in the result
	ZonesRead    int64 // candidate zones scanned
	ZonesPruned  int64 // zones eliminated by metadata probes
	// Shards lists the 1-based shard numbers a sharded query actually
	// scanned, for the /workload?shard=N filter.
	Shards []int
}

// entry is the live aggregate for one template. Guarded by Table.mu.
type entry struct {
	fp    string
	table string
	elem  *list.Element

	calls, errors, cacheHits int64
	totalSeconds             float64
	latBuckets               []int64 // on the shared obs latency bounds

	cost                   obs.Cost // summed over successful calls
	rowsReturned           int64
	zonesRead, zonesPruned int64
	shards                 map[int]struct{} // 1-based shard numbers ever scanned

	// Skip-regression detector state: two EWMAs of the template's
	// per-query skip rate. skipFast tracks recent behavior; skipBase is
	// the slow learned baseline of what the template used to achieve.
	// A positive (base − fast) gap means pruning has degraded — stale
	// metadata after appends, merged-away zones, or arbitration flips —
	// and surfaces as adskip_adapt_skip_regression_ppm via RegressionGap.
	skipFast, skipBase float64
	skipSeen           bool

	firstSeen, lastSeen time.Time
}

// Table is the bounded per-template statistics table. All methods are
// safe for concurrent use.
type Table struct {
	mu     sync.Mutex
	byFP   map[string]*entry
	order  *list.List // front = most recently called
	bounds []float64  // shared latency bucket bounds

	recorded int64 // samples accepted (lifetime)
	evicted  int64 // templates evicted (lifetime)

	mTemplates *obs.Gauge
	mRecorded  *obs.Counter
	mErrors    *obs.Counter
	mEvicted   *obs.Counter
}

// New builds a stats table. reg, when non-nil, receives the
// adskip_stats_* metrics.
func New(reg *obs.Registry) *Table {
	t := &Table{
		byFP:   make(map[string]*entry),
		order:  list.New(),
		bounds: obs.LatencyBuckets(),
	}
	if reg != nil {
		t.mTemplates = reg.Gauge("adskip_stats_templates",
			"Distinct query templates currently tracked by the workload stats table.")
		t.mRecorded = reg.Counter("adskip_stats_recorded_total",
			"Query samples recorded into the workload stats table.")
		t.mErrors = reg.Counter("adskip_stats_errors_total",
			"Failed queries recorded into the workload stats table.")
		t.mEvicted = reg.Counter("adskip_stats_evicted_total",
			"Templates evicted from the workload stats table (LRU bound).")
		reg.GaugeFunc("adskip_adapt_skip_regression_ppm",
			"Worst per-template skip-rate regression (baseline minus fast EWMA), parts per million.",
			func() int64 { return int64(t.RegressionGap() * 1e6) })
	}
	return t
}

// Record folds one sample into its template's aggregate, creating the
// template (and evicting the LRU one past the bound) as needed. Samples
// without a fingerprint are ignored.
func (t *Table) Record(s Sample) {
	if t == nil || s.Fingerprint == "" {
		return
	}
	t.mu.Lock()
	var evictedNow int64
	e, ok := t.byFP[s.Fingerprint]
	if !ok {
		e = &entry{
			fp:         s.Fingerprint,
			table:      s.Table,
			latBuckets: make([]int64, len(t.bounds)+1),
			firstSeen:  time.Now(),
		}
		e.elem = t.order.PushFront(e)
		t.byFP[s.Fingerprint] = e
		for t.order.Len() > DefaultMaxTemplates {
			lru := t.order.Back()
			t.order.Remove(lru)
			delete(t.byFP, lru.Value.(*entry).fp)
			t.evicted++
			evictedNow++
		}
	} else {
		t.order.MoveToFront(e.elem)
	}
	if e.table == "" {
		e.table = s.Table
	}
	e.lastSeen = time.Now()
	e.calls++
	sec := s.Latency.Seconds()
	e.totalSeconds += sec
	e.latBuckets[sort.SearchFloat64s(t.bounds, sec)]++
	if s.Err {
		e.errors++
	} else {
		if s.CacheHit {
			e.cacheHits++
		}
		e.cost.Add(s.Cost)
		e.rowsReturned += s.RowsReturned
		e.zonesRead += s.ZonesRead
		e.zonesPruned += s.ZonesPruned
		if denom := s.Cost.RowsSkipped + s.Cost.RowsScanned; denom > 0 {
			rate := float64(s.Cost.RowsSkipped) / float64(denom)
			if !e.skipSeen {
				// Warm start: the first observation seeds both averages so
				// a fresh template never reports a spurious gap.
				e.skipFast, e.skipBase, e.skipSeen = rate, rate, true
			} else {
				e.skipFast += skipFastAlpha * (rate - e.skipFast)
				e.skipBase += skipBaseAlpha * (rate - e.skipBase)
			}
		}
		for _, sh := range s.Shards {
			if sh <= 0 {
				continue
			}
			if e.shards == nil {
				e.shards = make(map[int]struct{})
			}
			e.shards[sh] = struct{}{}
		}
	}
	t.recorded++
	templates := t.order.Len()
	t.mu.Unlock()

	if t.mRecorded != nil {
		t.mRecorded.Inc()
		if s.Err {
			t.mErrors.Inc()
		}
		t.mTemplates.Set(int64(templates))
		if evictedNow > 0 {
			t.mEvicted.Add(evictedNow)
		}
	}
}

// RegressionGap returns the worst per-template skip-rate regression
// currently tracked: max over templates of (learned baseline − fast
// EWMA), clamped at 0. Zero means no template prunes worse than its own
// history. A /metrics scrape reads it as adskip_adapt_skip_regression_ppm.
func (t *Table) RegressionGap() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	worst := 0.0
	for _, e := range t.byFP {
		if !e.skipSeen {
			continue
		}
		if gap := e.skipBase - e.skipFast; gap > worst {
			worst = gap
		}
	}
	t.mu.Unlock()
	return worst
}

// Len reports how many templates are currently tracked.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}
