package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// QueryTrace records one query execution: per-phase wall-clock timings
// (plan → metadata probe → scan → feedback) and the skipping decision each
// predicate column's skipper made. The engine allocates one trace per
// query (never per row) and attaches it to the result, so every query is
// traced with no opt-in switch. The flat fields are the whole record:
// EXPLAIN ANALYZE, /traces, the server's wire timing and the workload
// stats all read them, and a trace is never changed once published.
type QueryTrace struct {
	Table string    `json:"table"`
	Start time.Time `json:"start"`

	// Origin is where the query came from: session, client trace ID,
	// template and plan-cache marker (see OriginOf).
	Origin

	// Phase timings. Feedback is the skipper.Observe calls that follow a
	// completed scan, one per predicate column. ShardPrune is
	// nonzero only on sharded tables: the time spent eliminating shards by
	// key bounds before any zone metadata was consulted (the shardprune
	// phase runs between plan and probe).
	Plan       time.Duration `json:"plan_ns"`                 // validation + aggregate/projection binding
	ShardPrune time.Duration `json:"shardprune_ns,omitempty"` // shard elimination by key bounds (sharded tables)
	Probe      time.Duration `json:"probe_ns"`                // predicate lowering + skipper metadata probes
	Scan       time.Duration `json:"scan_ns"`                 // kernel execution over candidate windows
	Feedback   time.Duration `json:"feedback_ns"`             // probe results handed back to skippers
	Total      time.Duration `json:"total_ns"`

	// Cost is the query's counted work, the result's stats; MarshalJSON
	// writes it with the shard counts after the match count.
	Cost      `json:"-"`
	RowsTotal int `json:"rows_total"`
	Matched   int `json:"matched"` // qualifying rows (projection: rows returned)

	// Shards lists the 1-based shards a merged logical trace actually
	// scanned (empty elsewhere), so a sharded table's queries are
	// attributable to the shards that served them.
	Shards []int `json:"shards,omitempty"`

	Predicates []PredicateTrace `json:"predicates,omitempty"`
}

// PredicateTrace is the per-predicate-column skipping decision of one
// query: what the probe estimated (rows skippable, candidate windows) and
// what execution observed. Its Cost is the probe's outcome; SkippersUsed
// is nonzero when the skipper participated (did not decline).
type PredicateTrace struct {
	Column    string // the predicate column
	Predicate string // lowered code intervals, or "IS NULL"
	Skipper   string // skipper kind; "" when the column has none
	Cost

	// Matched is the observed matching row count when execution can
	// attribute it to this predicate alone (single-predicate fast path);
	// -1 when unattributable (multi-column intersection).
	Matched int
}

// MarshalJSON writes the trace with its cost where /traces has always had
// it: the scan and probe totals before the row total, the shard counts
// after the match count. The fields declared here shadow the trace's own
// of the same key, which is what places them.
func (t *QueryTrace) MarshalJSON() ([]byte, error) {
	type trace QueryTrace // the fields, without this method
	return json.Marshal(struct {
		*trace
		RowsScanned   int              `json:"rows_scanned"`
		RowsSkipped   int              `json:"rows_skipped"`
		RowsCovered   int              `json:"rows_covered"`
		ZonesProbed   int              `json:"zones_probed"`
		RowsTotal     int              `json:"rows_total"`
		Matched       int              `json:"matched"`
		ShardsScanned int              `json:"shards_scanned,omitempty"`
		ShardsPruned  int              `json:"shards_pruned,omitempty"`
		Shards        []int            `json:"shards,omitempty"`
		Predicates    []PredicateTrace `json:"predicates,omitempty"`
	}{(*trace)(t), t.RowsScanned, t.RowsSkipped, t.RowsCovered, t.ZonesProbed,
		t.RowsTotal, t.Matched, t.ShardsScanned, t.ShardsPruned, t.Shards, t.Predicates})
}

// MarshalJSON writes the section under its /traces keys: the probe's
// rows skipped as est_rows_skipped, participation as active, and the
// why-not-skipped counts only when nonzero.
func (p PredicateTrace) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Column                 string `json:"column"`
		Predicate              string `json:"predicate"`
		Skipper                string `json:"skipper"`
		Active                 bool   `json:"active"`
		ZonesProbed            int    `json:"zones_probed"`
		Windows                int    `json:"windows"`
		CoveredWindows         int    `json:"covered_windows"`
		CandidateRows          int    `json:"candidate_rows"`
		EstRowsSkipped         int    `json:"est_rows_skipped"`
		Matched                int    `json:"matched"`
		NotSkippedOverlap      int    `json:"not_skipped_overlap,omitempty"`
		NotSkippedNullStraddle int    `json:"not_skipped_null_straddle,omitempty"`
	}{p.Column, p.Predicate, p.Skipper, p.SkippersUsed > 0, p.ZonesProbed, p.Windows, p.CoveredWindows,
		p.CandidateRows, p.RowsSkipped, p.Matched, p.NotSkippedOverlap, p.NotSkippedNullStraddle})
}

// Lines renders the trace as aligned human-readable lines. Durations are
// included only when withTimings is true, so tests can assert on the
// deterministic part.
func (t *QueryTrace) Lines(withTimings bool) []string {
	var out []string
	out = append(out, fmt.Sprintf("trace: table %q, %d rows", t.Table, t.RowsTotal))
	sharded := t.ShardsScanned+t.ShardsPruned > 0
	if withTimings {
		out = append(out, fmt.Sprintf("phase plan     %s", t.Plan))
		if sharded {
			out = append(out, fmt.Sprintf("phase shardprune %s (%d of %d shards pruned)",
				t.ShardPrune, t.ShardsPruned, t.ShardsScanned+t.ShardsPruned))
		}
		out = append(out,
			fmt.Sprintf("phase probe    %s (%d zone probes)", t.Probe, t.ZonesProbed),
			fmt.Sprintf("phase scan     %s (scanned %d, covered %d, skipped %d rows)",
				t.Scan, t.RowsScanned, t.RowsCovered, t.RowsSkipped),
			fmt.Sprintf("phase feedback %s", t.Feedback),
			fmt.Sprintf("total          %s", t.Total),
		)
	} else {
		if sharded {
			out = append(out, fmt.Sprintf("shardprune: %d of %d shards pruned",
				t.ShardsPruned, t.ShardsScanned+t.ShardsPruned))
		}
		out = append(out,
			fmt.Sprintf("probe: %d zone probes", t.ZonesProbed),
			fmt.Sprintf("scan: scanned %d, covered %d, skipped %d rows",
				t.RowsScanned, t.RowsCovered, t.RowsSkipped),
		)
	}
	for i := range t.Predicates {
		out = t.Predicates[i].AppendLines(out, t.RowsTotal)
	}
	return out
}

// AppendLines renders the predicate's probe outcome, out of a table of
// rowsTotal rows, onto out: one line, and a second that breaks down the
// zones left unskipped when the skipper classified any. EXPLAIN ANALYZE
// and EXPLAIN both render predicates with it.
func (p *PredicateTrace) AppendLines(out []string, rowsTotal int) []string {
	line := fmt.Sprintf("predicate on %q: %s", p.Column, p.Predicate)
	switch {
	case p.Skipper == "":
		line += " — no skipper, full evaluation"
	case p.SkippersUsed == 0:
		line += fmt.Sprintf(" — %s skipper declined, full evaluation", p.Skipper)
	default:
		line += fmt.Sprintf(" — %s skipper: %d zone probes, est. %d rows skippable (%.1f%%), %d windows (%d covered, %d candidate rows, %d rows covered)",
			p.Skipper, p.ZonesProbed, p.RowsSkipped, Pct(p.RowsSkipped, rowsTotal),
			p.Windows, p.CoveredWindows, p.CandidateRows, p.RowsCovered)
		if p.Matched >= 0 {
			line += fmt.Sprintf("; actual matched %d", p.Matched)
		}
	}
	out = append(out, line)
	if n := p.NotSkippedOverlap + p.NotSkippedNullStraddle; n > 0 {
		out = append(out, fmt.Sprintf("  not skipped: %d zones — %d bounds-overlap, %d null-straddle",
			n, p.NotSkippedOverlap, p.NotSkippedNullStraddle))
	}
	return out
}

// String renders the trace with timings.
func (t *QueryTrace) String() string { return strings.Join(t.Lines(true), "\n") }

// Pct is part as a percentage of whole, 0 when whole is 0.
func Pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}
