package stats

import (
	"sort"
	"time"

	"adskip/internal/obs"
)

// Sort keys accepted by Snapshot.
const (
	SortTime  = "time"  // total execution time, descending (default)
	SortCalls = "calls" // call count, descending
	SortBytes = "bytes" // bytes scanned, descending
)

// ValidSort reports whether key names a supported sort order ("" means
// the default, SortTime).
func ValidSort(key string) bool {
	switch key {
	case "", SortTime, SortCalls, SortBytes:
		return true
	}
	return false
}

// TemplateSnapshot is the exported aggregate for one query template.
// The JSON field set is the /workload wire schema — golden-locked by
// telemetry tests; a rename or removal is a schema change. This version
// removed zones_read and zones_pruned (they summed coalesced candidate
// windows, not zones) and the skip-regression view skip_fast, skip_base
// and skip_regression: the per-template signal is the change in
// rows_skipped and rows_read between two polls.
type TemplateSnapshot struct {
	Fingerprint string `json:"fingerprint"`
	Table       string `json:"table"`
	Calls       int64  `json:"calls"`
	Errors      int64  `json:"errors"`
	CacheHits   int64  `json:"cache_hits"`

	TotalSeconds float64 `json:"total_seconds"`
	MeanUS       float64 `json:"mean_us"`
	P50US        float64 `json:"p50_us"`
	P95US        float64 `json:"p95_us"`

	RowsRead     int64   `json:"rows_read"`
	RowsReturned int64   `json:"rows_returned"`
	RowsSkipped  int64   `json:"rows_skipped"`
	SkipRatio    float64 `json:"skip_ratio"`
	BytesScanned int64   `json:"bytes_scanned"`

	// Shard scatter-gather attribution (sharded tables only, all omitted
	// otherwise): cumulative shards scanned vs pruned, and the sorted
	// 1-based shard numbers this template has ever scanned.
	ShardsScanned int64 `json:"shards_scanned,omitempty"`
	ShardsPruned  int64 `json:"shards_pruned,omitempty"`
	Shards        []int `json:"shards,omitempty"`

	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// WorkloadSnapshot is a point-in-time view of the whole table, sorted
// and truncated for exposition.
type WorkloadSnapshot struct {
	Templates      []TemplateSnapshot `json:"templates"`
	TotalTemplates int                `json:"total_templates"` // tracked, before top-K truncation
	Evicted        int64              `json:"evicted_templates"`
	Recorded       int64              `json:"recorded_calls"`
	SortedBy       string             `json:"sorted_by"`
	// MaxShard is the highest 1-based shard number seen across all tracked
	// templates (0 when the workload is unsharded). The telemetry server
	// uses it to validate ?shard=N filters.
	MaxShard int `json:"max_shard,omitempty"`
}

// Snapshot copies the top-k templates under the given sort order
// ("" = SortTime; k <= 0 = all). Unknown sort keys fall back to SortTime
// — callers that must reject them use ValidSort first.
func (t *Table) Snapshot(sortBy string, k int) WorkloadSnapshot {
	if t == nil {
		return WorkloadSnapshot{Templates: []TemplateSnapshot{}, SortedBy: SortTime}
	}
	if sortBy == "" || !ValidSort(sortBy) {
		sortBy = SortTime
	}

	t.mu.Lock()
	snap := WorkloadSnapshot{
		Templates:      make([]TemplateSnapshot, 0, len(t.byFP)),
		TotalTemplates: len(t.byFP),
		Evicted:        t.evicted,
		Recorded:       t.recorded,
		SortedBy:       sortBy,
	}
	for _, e := range t.byFP {
		ts := t.snapshotEntryLocked(e)
		if n := len(ts.Shards); n > 0 && ts.Shards[n-1] > snap.MaxShard {
			snap.MaxShard = ts.Shards[n-1]
		}
		snap.Templates = append(snap.Templates, ts)
	}
	t.mu.Unlock()

	less := func(a, b TemplateSnapshot) bool { return a.TotalSeconds > b.TotalSeconds }
	switch sortBy {
	case SortCalls:
		less = func(a, b TemplateSnapshot) bool { return a.Calls > b.Calls }
	case SortBytes:
		less = func(a, b TemplateSnapshot) bool { return a.BytesScanned > b.BytesScanned }
	}
	// Fingerprint is the deterministic tiebreak so equal-weight templates
	// (common in tests and fresh tables) snapshot in a stable order.
	sort.Slice(snap.Templates, func(i, j int) bool {
		a, b := snap.Templates[i], snap.Templates[j]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		return a.Fingerprint < b.Fingerprint
	})
	if k > 0 && len(snap.Templates) > k {
		snap.Templates = snap.Templates[:k]
	}
	return snap
}

// snapshotEntryLocked copies one live entry into its exported form.
// Caller holds t.mu.
func (t *Table) snapshotEntryLocked(e *entry) TemplateSnapshot {
	ts := TemplateSnapshot{
		Fingerprint:   e.fp,
		Table:         e.table,
		Calls:         e.calls,
		Errors:        e.errors,
		CacheHits:     e.cacheHits,
		TotalSeconds:  e.totalSeconds,
		P50US:         1e6 * obs.QuantileFromBuckets(t.bounds, e.latBuckets, 0.50),
		P95US:         1e6 * obs.QuantileFromBuckets(t.bounds, e.latBuckets, 0.95),
		RowsRead:      int64(e.cost.RowsScanned),
		RowsReturned:  e.rowsReturned,
		RowsSkipped:   int64(e.cost.RowsSkipped),
		BytesScanned:  int64(e.cost.BytesScanned),
		ShardsScanned: int64(e.cost.ShardsScanned),
		ShardsPruned:  int64(e.cost.ShardsPruned),
		FirstSeen:     e.firstSeen,
		LastSeen:      e.lastSeen,
	}
	if len(e.shards) > 0 {
		ts.Shards = make([]int, 0, len(e.shards))
		for sh := range e.shards {
			ts.Shards = append(ts.Shards, sh)
		}
		sort.Ints(ts.Shards)
	}
	if ts.Calls > 0 {
		ts.MeanUS = 1e6 * ts.TotalSeconds / float64(ts.Calls)
	}
	if denom := ts.RowsSkipped + ts.RowsRead; denom > 0 {
		ts.SkipRatio = float64(ts.RowsSkipped) / float64(denom)
	}
	return ts
}

// Template returns the snapshot of one template by fingerprint (without
// refreshing its LRU position).
func (t *Table) Template(fingerprint string) (TemplateSnapshot, bool) {
	if t == nil {
		return TemplateSnapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byFP[fingerprint]
	if !ok {
		return TemplateSnapshot{}, false
	}
	return t.snapshotEntryLocked(e), true
}
