package obs

// Cost is the counted work of one query, or of one predicate column of
// it: the rows, zones and windows the paper weighs a skipping scheme by.
// A query's record is its Result's stats (engine.ExecStats is this type)
// and its trace's totals; a predicate column's is its trace section. The
// partials of a sharded query add theirs with Add, once per query and once
// per predicate column, and the wire, the workload stats and the
// per-column counters read the same fields, so a column added here is
// carried everywhere at once.
//
// The JSON tags are the wire's "stats" object; a column tagged "-" is not
// on the wire.
type Cost struct {
	RowsScanned  int `json:"rows_scanned"` // rows whose codes were read by a kernel
	BytesScanned int `json:"-"`            // those rows at each filtered column's code width (4 or 8)
	// RowsSkipped counts the rows metadata proved non-matching: a query's
	// is the sum over its predicate columns, a column's its probe's
	// estimate.
	RowsSkipped int `json:"rows_skipped"`
	// RowsCovered counts the rows of covered windows (every row matches;
	// no predicate is evaluated), whatever the result shape. Like
	// RowsScanned, a query's charges a window the scan took whole, even
	// where an unordered LIMIT keeps only part of it; a predicate column's
	// counts the rows of its covered candidate windows.
	RowsCovered int `json:"rows_covered"`
	ZonesProbed int `json:"zones_probed"`
	// SkippersUsed counts the predicate columns where skipping took part:
	// a predicate column's is 1 when its skipper did not decline (a sum
	// over shards after a merge).
	SkippersUsed int `json:"skippers_used"`
	// Shard pruning (sharded tables only). Shards whose key bounds cannot
	// intersect the predicate are eliminated before any zone metadata is
	// consulted. Zero, and omitted on the wire, for unsharded engines.
	ShardsScanned int `json:"shards_scanned,omitempty"`
	ShardsPruned  int `json:"shards_pruned,omitempty"`

	// A predicate column's probe outcome: the candidate windows its
	// skipper emitted, those proven fully matching, and the rows inside.
	Windows        int `json:"-"`
	CoveredWindows int `json:"-"`
	CandidateRows  int `json:"-"`

	// Why-not-skipped counts: how the zones that stayed candidates
	// (neither skipped nor covered) failed to prune, classified by the
	// skipper during the probe. Only introspectable skippers (adaptive
	// zonemaps) report them; all zero otherwise.
	//
	// NotSkippedOverlap: the zone's value hull straddles the predicate
	// boundary — finer zones might help, wider ones won't.
	// NotSkippedNullStraddle: the hull is fully covered by the predicate
	// but NULL rows inside the zone block the coverage proof.
	NotSkippedOverlap      int `json:"-"`
	NotSkippedNullStraddle int `json:"-"`
}

// Add sums o into c, column by column.
func (c *Cost) Add(o Cost) {
	c.RowsScanned += o.RowsScanned
	c.BytesScanned += o.BytesScanned
	c.RowsSkipped += o.RowsSkipped
	c.RowsCovered += o.RowsCovered
	c.ZonesProbed += o.ZonesProbed
	c.SkippersUsed += o.SkippersUsed
	c.ShardsScanned += o.ShardsScanned
	c.ShardsPruned += o.ShardsPruned
	c.Windows += o.Windows
	c.CoveredWindows += o.CoveredWindows
	c.CandidateRows += o.CandidateRows
	c.NotSkippedOverlap += o.NotSkippedOverlap
	c.NotSkippedNullStraddle += o.NotSkippedNullStraddle
}
