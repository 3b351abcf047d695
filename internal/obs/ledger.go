package obs

import (
	"fmt"
	"sync"
	"time"
)

// The adaptation ledger: the one bounded journal of zone-lifecycle
// events, with full provenance — what changed, why, which query template
// triggered it, and the before/after shape of the affected metadata.
// Every record carries enough context to credit or debit the adaptation
// that produced it; /adaptation and \events are projections of it, and
// the per-table running totals feed the
// EXPLAIN ANALYZE footer without a ring scan. Appends happen only on
// change (split, merge, tail fold, arbitration flip, skipper build,
// quarantine), never per probe or per scanned row, so the
// journal costs the scan hot path nothing.

// LedgerRecord is one zone-lifecycle event with provenance. Row bounds
// ([RowLo,RowHi)) locate the affected region; Min/Max Before/After are
// the value-bound hulls of that region before and after the change (for
// a merge the hull is unchanged and the zone counts carry the story).
type LedgerRecord struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Table  string    `json:"table"`
	Column string    `json:"column"`
	// Shard is the 1-based shard that produced the record (0 = unsharded).
	Shard int       `json:"shard,omitempty"`
	Kind  EventKind `json:"kind"`
	// Cause is a short machine-readable reason: "split-gain",
	// "merge-cold", "net-benefit", "shadow-probe", "append-fold",
	// "panic", "corruption", "build".
	Cause string `json:"cause"`
	// Fingerprint is the literal-stripped template of the query whose
	// feedback triggered the change; "" for changes outside a query
	// (direct appends, administrative rebuilds).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Zone counts before and after: of the edited run (split, merge), else of the column.
	ZonesBefore int `json:"zones_before"`
	ZonesAfter  int `json:"zones_after"`
	// Affected row window and its value-bound hull before/after.
	RowLo     int   `json:"row_lo"`
	RowHi     int   `json:"row_hi"`
	MinBefore int64 `json:"min_before"`
	MaxBefore int64 `json:"max_before"`
	MinAfter  int64 `json:"min_after"`
	MaxAfter  int64 `json:"max_after"`
}

// String renders the record on one line.
func (r LedgerRecord) String() string {
	return fmt.Sprintf("#%d %s.%s %s cause=%s zones %d->%d rows [%d,%d) bounds [%d,%d]->[%d,%d] fp=%q",
		r.Seq, r.Table, r.Column, r.Kind, r.Cause, r.ZonesBefore, r.ZonesAfter,
		r.RowLo, r.RowHi, r.MinBefore, r.MaxBefore, r.MinAfter, r.MaxAfter, r.Fingerprint)
}

// LedgerTotals is one table's running ledger aggregate, maintained at
// append time so the EXPLAIN ANALYZE footer never scans the ring.
type LedgerTotals struct {
	Events    uint64    `json:"events"`
	Splits    uint64    `json:"splits"`
	LastSplit time.Time `json:"last_split,omitempty"`
	// LastSplitCause is the fingerprint (or cause when no fingerprint)
	// behind the most recent split.
	LastSplitCause string `json:"last_split_cause,omitempty"`
}

// Ledger is a bounded, concurrency-safe ring of LedgerRecords plus
// per-table running totals. Appends are O(1); when full the oldest
// records drop (and are counted). One ledger is shared by every table
// (and every shard) of a DB; records carry their own table/shard stamps
// so "per-shard ledgers" are a filter, not separate structures.
type Ledger struct {
	mu     sync.Mutex
	ring   *Ring[LedgerRecord]
	totals map[string]*LedgerTotals // keyed by table
}

// DefaultLedgerSize is the ring capacity used when none is given.
const DefaultLedgerSize = 2048

// NewLedger returns a ledger holding the last capacity records
// (DefaultLedgerSize when capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerSize
	}
	return &Ledger{
		ring:   NewRing[LedgerRecord](capacity),
		totals: make(map[string]*LedgerTotals),
	}
}

// Append records one event, stamping its sequence number and time and
// folding it into the table's running totals.
func (l *Ledger) Append(r LedgerRecord) {
	l.mu.Lock()
	r.Seq = l.ring.Total() + 1
	r.Time = time.Now()
	*l.ring.Push() = r
	t := l.totals[r.Table]
	if t == nil {
		t = &LedgerTotals{}
		l.totals[r.Table] = t
	}
	t.Events++
	if r.Kind == EventSplit {
		t.Splits++
		t.LastSplit = r.Time
		if r.Fingerprint != "" {
			t.LastSplitCause = r.Fingerprint
		} else {
			t.LastSplitCause = r.Cause
		}
	}
	l.mu.Unlock()
}

// Records returns a chronological copy of the retained records.
func (l *Ledger) Records() []LedgerRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.AppendTo(make([]LedgerRecord, 0, l.ring.Len()))
}

// Totals returns the running aggregate for one table (zero value when
// the table has no ledger activity).
func (l *Ledger) Totals(table string) LedgerTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.totals[table]; t != nil {
		return *t
	}
	return LedgerTotals{}
}

// Seq returns the total number of records ever appended.
func (l *Ledger) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Total()
}

// Dropped returns how many records the ring has evicted.
func (l *Ledger) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Dropped()
}

// ROI types: the per-zone return-on-investment view behind /adaptation.

// ROIZone is one zone's ROI detail, reported for dead zones (heat below
// the merge threshold: probes there have recently bought nothing) so an
// operator can see exactly which row ranges carry useless bounds.
type ROIZone struct {
	Lo   int     `json:"lo"`
	Hi   int     `json:"hi"`
	Min  int64   `json:"min"`
	Max  int64   `json:"max"`
	Heat float64 `json:"heat"`
}

// SkipperSnapshot is what a skipper reports for ROI accounting, copied in
// one cold-path call (core.Skipper's Introspect): its dead zones in row
// order. The probe and maintenance counters are the engine's per-column
// accounts, which outlive a rebuilt skipper, and the cost model that nets
// them is adaptive.Net.
type SkipperSnapshot struct {
	DeadZones []ROIZone
}

// ColumnROI is one column's adaptation return-on-investment: rows and
// bytes the metadata pruned (credit) against the probes it cost (debit),
// in row-equivalents under the adaptive cost model, beside the
// maintenance it did. Every counter covers the column's lifetime, across rebuilds.
// DeadZones counts zones the merge policy treats as cold — pure overhead
// the next layout decision should reclaim.
type ColumnROI struct {
	Table  string `json:"table"`
	Shard  int    `json:"shard,omitempty"`
	Column string `json:"column"`
	Kind   string `json:"kind"`
	Zones  int    `json:"zones"`
	Bytes  int    `json:"bytes"`

	RowsSkipped   int64 `json:"rows_skipped"`
	RowsCovered   int64 `json:"rows_covered"`
	BytesSkipped  int64 `json:"bytes_skipped"`
	CandidateRows int64 `json:"candidate_rows"`
	ZoneProbes    int64 `json:"zone_probes"`

	// Maintenance: the skipper's split, merge, tail-fold, disable and
	// enable records on the column, and the zones they touched (a split or
	// merge its larger side, a fold the zones it added, a flip none).
	MaintEvents int64 `json:"maintenance_events"`
	MaintZones  int64 `json:"maintenance_zones"`
	// NetRows is credit minus debit in row-equivalents,
	// adaptive.Net(rows_skipped, zone_probes): the charge arbitration
	// steps its EWMA by.
	NetRows float64 `json:"net_benefit_rows"`

	DeadZones      int       `json:"dead_zones"`
	DeadZoneDetail []ROIZone `json:"dead_zone_detail,omitempty"`
}

// AdaptationSnapshot is the /adaptation payload: the retained ledger
// records (oldest-first), drop accounting, and per-column ROI rows.
type AdaptationSnapshot struct {
	Total   uint64         `json:"total"`
	Dropped uint64         `json:"dropped"`
	Events  []LedgerRecord `json:"events"`
	ROI     []ColumnROI    `json:"roi"`
}
