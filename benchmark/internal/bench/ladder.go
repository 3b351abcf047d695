package bench

import (
	"fmt"
	"time"

	"adskip/internal/adaptive"
	"adskip/internal/core"
	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/scan"
)

// The ladder measures layers from outside: for a sampled query it calls
// each layer's public functions with the same predicate — lower, probe,
// scan the probe's candidate windows, then the whole query on reference
// engines — and times each call. A layer's self time is then a
// subtraction. Replayed rungs run on the live structures, so a replayed
// Prune feeds the adaptive heat EWMA a second time (no Observe follows);
// that perturbation is deterministic and confined to the traced run.

// rungs accumulates the ladder's samples and counts for one traced run.
type rungs struct {
	times    map[string]*recorder // rung name -> nanosecond samples
	count    map[string]float64   // exact counters, summed over ladder queries
	capacity int                  // samples a rung can take: one per ladder operation
	tr       *tracer
}

func newRungs(tr *tracer, capacity int) *rungs {
	return &rungs{times: make(map[string]*recorder), count: make(map[string]float64), capacity: capacity, tr: tr}
}

// sample records one duration of a rung that is not a call of its own
// (the entry call itself, or a phase read from the program's trace).
func (r *rungs) sample(name string, ns int64) {
	rec, ok := r.times[name]
	if !ok {
		rec = newRecorder(r.capacity)
		r.times[name] = rec
	}
	rec.add(ns)
}

// timed records one replayed call: its sample and its span.
func (r *rungs) timed(name string, start, end time.Time, parent, req int32) {
	r.sample(name, end.Sub(start).Nanoseconds())
	r.tr.record(name, start, end, parent, req, true)
}

// exactCounts copies the counters that depend only on the seed, not on the
// clock: two runs of one commit must produce identical values.
func (r *rungs) exactCounts() map[string]float64 {
	out := make(map[string]float64, len(r.count))
	for k, v := range r.count {
		if k != "scan.ns" {
			out[k] = v
		}
	}
	return out
}

// p50 returns the median of a rung's samples in nanoseconds.
func (r *rungs) p50(name string) float64 {
	rec, ok := r.times[name]
	if !ok {
		return 0
	}
	return rec.percentile(50)
}

// Names of the engine ladder's rungs.
const (
	rungQuery       = "engine.query"
	rungLower       = "expr.lower"
	rungProbe       = "adaptive.probe"
	rungScan        = "scan.count"
	rungFeedback    = "engine.feedback"
	rungStaticQuery = "ref.static.query"
	rungStaticProbe = "zonemap.probe"
	rungNoneQuery   = "ref.none.query"
)

// engineLadder replays one COUNT(*) range query rung by rung on an
// adaptive engine and on static and no-skipping engines over the same
// table (shared, not copied: the references see every append).
type engineLadder struct {
	eng          *engine.Engine
	static, none *engine.Engine
	r            *rungs
}

func newEngineLadder(eng *engine.Engine, r *rungs, skipCols ...string) (*engineLadder, error) {
	l := &engineLadder{eng: eng, r: r}
	l.static = engine.New(eng.Table(), engine.Options{Policy: engine.PolicyStatic})
	l.none = engine.New(eng.Table(), engine.Options{Policy: engine.PolicyNone})
	for _, e := range []*engine.Engine{l.static, l.none} {
		if err := e.EnableSkipping(skipCols...); err != nil {
			return nil, fmt.Errorf("reference engine: %w", err)
		}
	}
	return l, nil
}

// ladderChecks is how many answers one replay checks against the oracle:
// the summed scan windows, the static engine and the no-skipping engine.
const ladderChecks = 3

// replay runs the rungs below the entry call for q, whose answer must be
// want, and reports how many of the ladderChecks answers disagreed.
func (l *engineLadder) replay(q engine.Query, want int, parent, req int32) (wrong int) {
	r := l.r
	name := q.Where.Columns()[0]
	col, err := l.eng.Table().Column(name)
	if err != nil {
		return 1
	}

	t0 := time.Now()
	cp, err := expr.LowerColumn(q.Where, col)
	t1 := time.Now()
	if err != nil {
		return 1
	}
	r.timed(rungLower, t0, t1, parent, req)

	sk := l.eng.Skipper(name)
	t0 = time.Now()
	pr := sk.Prune(cp.R)
	t1 = time.Now()
	r.timed(rungProbe, t0, t1, parent, req)
	rows := col.Len()
	r.count["adaptive.probes"]++
	r.count["adaptive.zones_probed"] += float64(pr.ZonesProbed)
	r.count["adaptive.rows_skipped"] += float64(pr.RowsSkipped)
	r.count["rows_total"] += float64(rows)
	r.count["oracle.matched"] += float64(want)

	windows := pr.Zones
	if !pr.Enabled {
		windows = []core.CandidateZone{{ID: core.NoZoneID, Lo: 0, Hi: rows}}
	} else {
		r.count["adaptive.windows"] += float64(len(windows))
	}
	codes, nulls := col.Codes(), col.Nulls()
	got, scanned := 0, 0
	t0 = time.Now()
	for _, w := range windows {
		if w.Covered {
			got += w.Hi - w.Lo
			continue
		}
		got += scan.CountRanges(codes, w.Lo, w.Hi, cp.R, nulls, 0)
		scanned += w.Hi - w.Lo
	}
	t1 = time.Now()
	r.timed(rungScan, t0, t1, parent, req)
	r.count["scan.rows"] += float64(scanned)
	r.count["scan.ns"] += float64(t1.Sub(t0).Nanoseconds())
	if got != want {
		wrong++
	}

	t0 = time.Now()
	res, err := l.static.Query(q)
	t1 = time.Now()
	r.timed(rungStaticQuery, t0, t1, parent, req)
	if err != nil || res.Count != want {
		wrong++
	}
	// The static engine's query above synchronised its zonemap with any
	// appended rows, so the bare probe sees the same table.
	t0 = time.Now()
	sp := l.static.Skipper(name).Prune(cp.R)
	t1 = time.Now()
	r.timed(rungStaticProbe, t0, t1, parent, req)
	r.count["zonemap.zones_probed"] += float64(sp.ZonesProbed)

	t0 = time.Now()
	res, err = l.none.Query(q)
	t1 = time.Now()
	r.timed(rungNoneQuery, t0, t1, parent, req)
	if err != nil || res.Count != want {
		wrong++
	}
	return wrong
}

// adaptiveState sums the structure counters of adaptive skippers.
type adaptiveState struct {
	zones, bytes, splits, merges, enabled int
}

func (s *adaptiveState) add(sk core.Skipper) {
	md := sk.Metadata()
	s.zones += md.Zones
	s.bytes += md.Bytes
	if md.Enabled {
		s.enabled++
	}
	if z, ok := sk.(*adaptive.Zonemap); ok {
		st := z.Stats()
		s.splits += st.Splits
		s.merges += st.Merges
	}
}

func (s *adaptiveState) metrics(m map[string]float64) {
	m["adaptive.zones"] = float64(s.zones)
	m["adaptive.metadata_bytes"] = float64(s.bytes)
	m["adaptive.splits"] = float64(s.splits)
	m["adaptive.merges"] = float64(s.merges)
	m["adaptive.enabled"] = float64(s.enabled)
}

func (s *adaptiveState) counts(c map[string]float64) {
	c["adaptive.zones"] = float64(s.zones)
	c["adaptive.splits"] = float64(s.splits)
	c["adaptive.merges"] = float64(s.merges)
}

// engineLayerMetrics turns the engine ladder's samples into per-layer
// metrics.
func (r *rungs) engineLayerMetrics(m map[string]float64) {
	n := r.count["adaptive.probes"]
	if n == 0 {
		return
	}
	m["expr.lower_ns"] = r.p50(rungLower)
	m["adaptive.probe_ns"] = r.p50(rungProbe)
	if z := r.count["adaptive.zones_probed"]; z > 0 {
		m["adaptive.probe_ns_per_zone"] = float64(r.times[rungProbe].sum()) / z
	}
	m["adaptive.zones_probed_per_query"] = r.count["adaptive.zones_probed"] / n
	m["adaptive.windows_per_query"] = r.count["adaptive.windows"] / n
	m["adaptive.skipped_row_frac"] = r.count["adaptive.rows_skipped"] / r.count["rows_total"]
	m["scan.rows_per_query"] = r.count["scan.rows"] / n
	if rows := r.count["scan.rows"]; rows > 0 {
		m["scan.ns_per_row"] = r.count["scan.ns"] / rows
		m["scan.gb_per_s"] = rows * 8 / r.count["scan.ns"]
	}
	m["zonemap.probe_ns"] = r.p50(rungStaticProbe)
	m["zonemap.zones_probed_per_query"] = r.count["zonemap.zones_probed"] / n
	m["ref.static.query_us"] = r.p50(rungStaticQuery) / 1e3
	m["ref.none.query_us"] = r.p50(rungNoneQuery) / 1e3
	q := r.p50(rungQuery)
	m["engine.query_us"] = q / 1e3
	m["engine.self_us"] = (q - r.p50(rungLower) - r.p50(rungProbe) - r.p50(rungScan)) / 1e3
	m["engine.feedback_ns"] = r.p50(rungFeedback)
}
