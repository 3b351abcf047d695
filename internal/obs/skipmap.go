package obs

// Skipmap types: the JSON shape of the telemetry server's /skipmap
// endpoint — a per-table, per-column view of which zones actually prune.
// The engine assembles these snapshots from live skipper state and the
// per-column counters; the types live here so the telemetry server (and
// any external consumer) depends only on obs.

// SkipmapZone is one zone of an introspectable skipper: its row window,
// value bounds, adaptation heat, and lifetime prune hit/miss counters.
// A "hit" is a probe where the zone's metadata was useful (the zone was
// skipped outright or proven covered); a "miss" left the zone as a
// candidate the scan had to read.
type SkipmapZone struct {
	Lo      int     `json:"lo"`
	Hi      int     `json:"hi"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
	NonNull int     `json:"non_null"`
	Heat    float64 `json:"heat"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
}

// SkipmapColumn is the per-column skipping state: structure, adaptation
// state, lifetime counters, and (for introspectable skippers) per-zone
// detail. SkipRatio is the cumulative fraction of probed rows the
// column's metadata pruned: skipped / (skipped + candidate).
type SkipmapColumn struct {
	Column      string `json:"column"`
	Kind        string `json:"kind"` // "adaptive", "static", "imprint", "none"
	Zones       int    `json:"zones"`
	Bytes       int    `json:"bytes"`
	Enabled     bool   `json:"enabled"`
	Quarantined bool   `json:"quarantined"`
	Quarantine  string `json:"quarantine_cause,omitempty"`

	Probes        int64   `json:"probes"`
	Declined      int64   `json:"declined"`
	ZoneProbes    int64   `json:"zone_probes"`
	RowsSkipped   int64   `json:"rows_skipped"`
	CandidateRows int64   `json:"candidate_rows"`
	CoveredRows   int64   `json:"covered_rows"`
	SkipRatio     float64 `json:"skip_ratio"`

	// ZoneDetail is present for skippers that expose per-zone counters
	// (adaptive zonemaps), truncated to the request's zone cap.
	ZoneDetail     []SkipmapZone `json:"zone_detail,omitempty"`
	ZonesTruncated int           `json:"zones_truncated,omitempty"` // zones beyond the cap
}

// SkipmapTable is one table's skipmap: row count plus per-column state,
// columns sorted by name. A sharded table reports one SkipmapTable per
// shard (Shard 1..Shards); unsharded tables leave both fields zero.
type SkipmapTable struct {
	Table string `json:"table"`
	// Shard is this entry's 1-based shard number on a sharded table
	// (0 = unsharded); Shards is the table's total shard count.
	Shard   int             `json:"shard,omitempty"`
	Shards  int             `json:"shards,omitempty"`
	Rows    int             `json:"rows"`
	Columns []SkipmapColumn `json:"columns"`
}

// SkipperSnapshot is a skipper's whole introspectable state, copied in
// one cold-path call (core.Skipper's Introspect): every zone in row
// order, the lifetime probe and maintenance counters, and the cost-model
// constants that weigh them. The engine derives the /skipmap zone detail
// and the /adaptation ROI rows (net benefit, dead zones) from it. A
// skipper that keeps no such accounts returns the zero value — no zones,
// RowCost 0 — and gets neither.
type SkipperSnapshot struct {
	Zones []SkipmapZone

	// Lifetime probe accounting across every Prune/PruneNulls call.
	RowsSkipped int64
	ZoneProbes  int64
	// Maintenance debits: structural/arbitration events, and the zones
	// they touched.
	MaintEvents int64
	MaintZones  int64

	// Cost model, in row-equivalents: one row of scan work avoided, one
	// zone probe, one zone's worth of maintenance work.
	RowCost, ProbeCost, MaintCost float64
}
