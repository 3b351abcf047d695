// Package zonemap implements the fixed-grid skipper — zones of a fixed
// number of consecutive rows, one summary and one non-null count per zone,
// every zone probed on every query — and its classic summary kind, the
// static zonemap the adaptive zonemap is measured against.
//
// What a zone's summary is, and how a predicate is tested against it, is
// a Kind: the min/max hull here, the bin-occurrence mask in package
// imprint. Everything else — zone layout, Extend, PruneNulls, candidate
// coalescing, invariant re-derivation — is the Grid's, once. Probing costs
// one summary test per zone on every query: the overhead the paper shows
// is unrecoverable on arbitrary data distributions, motivating adaptivity.
package zonemap

import (
	"fmt"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// Kind is one way of summarising a zone: S is the per-zone summary (the
// metadata type), Q the clause a predicate is lowered to once per query
// and tested against each summary. A summary is meaningful only for a
// zone holding at least one value; the Grid never tests or compares the
// summary of an all-NULL zone.
type Kind[S, Q any] interface {
	// Name is the Metadata kind.
	Name() string
	// Bytes estimates the footprint of zones summaries with their
	// non-null counts, plus the kind's own state.
	Bytes(zones int) int
	// Summarize derives the summary and non-null count of rows [lo, hi).
	Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (s S, nonNull int)
	// Admit loosens s to hold code; empty says s holds no value yet.
	Admit(s S, empty bool, code int64) S
	// Lower turns a predicate's code intervals into the clause.
	Lower(r expr.Ranges) Q
	// Test reports whether a zone summarised by s may hold a matching
	// value (overlaps) and whether every value it holds matches (covers).
	Test(q Q, s S) (overlaps, covers bool)
	// Holds reports whether the stored summary admits everything the
	// re-derived one does — and nothing more when exact.
	Holds(have, derived S, exact bool) bool
}

// Grid is a fixed-granularity skipper over a column prefix of n rows:
// zone i covers rows [i*zoneSize, min((i+1)*zoneSize, n)). It never
// learns: Observe, the journal, Health and Introspect have nothing to do.
type Grid[S, Q any] struct {
	kind     Kind[S, Q]
	zoneSize int
	n        int
	sums     []S
	nonNull  []int32 // rows carrying a value, per zone
}

// NewGrid summarises the codes.Len() rows of a column view in zones of
// zoneSize rows (positive; a zone holds at most 2^31 rows). nulls may be
// nil.
func NewGrid[S, Q any](kind Kind[S, Q], codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[S, Q] {
	if zoneSize <= 0 {
		panic(fmt.Sprintf("%s: zoneSize %d must be positive", kind.Name(), zoneSize))
	}
	g := &Grid[S, Q]{kind: kind, zoneSize: zoneSize}
	g.Extend(codes, nulls)
	return g
}

// Rows returns the number of rows covered by metadata.
func (g *Grid[S, Q]) Rows() int { return g.n }

// Metadata reports the grid's shape and the kind's footprint estimate.
func (g *Grid[S, Q]) Metadata() core.Metadata {
	return core.Metadata{Kind: g.kind.Name(), Zones: len(g.sums), Bytes: g.kind.Bytes(len(g.sums)), Enabled: true}
}

// window returns zone zi's row window.
func (g *Grid[S, Q]) window(zi int) (lo, hi int) {
	lo = zi * g.zoneSize
	return lo, min(lo+g.zoneSize, g.n)
}

// Extend grows the grid to cover codes, which must be the column's full
// code vector (the grid remembers how many rows it has already summarised
// and only processes the suffix). The final, possibly partial, zone is
// rebuilt when new rows land in it.
func (g *Grid[S, Q]) Extend(codes storage.Vec, nulls *bitvec.BitVec) {
	total := codes.Len()
	if total <= g.n {
		return
	}
	whole := g.n / g.zoneSize
	g.sums, g.nonNull = g.sums[:whole], g.nonNull[:whole]
	for lo := whole * g.zoneSize; lo < total; lo += g.zoneSize {
		s, nn := g.kind.Summarize(codes, nulls, lo, min(lo+g.zoneSize, total))
		g.sums = append(g.sums, s)
		g.nonNull = append(g.nonNull, int32(nn))
	}
	g.n = total
}

// Widen loosens the enclosing zone's summary to admit an updated value at
// row: pruning stays sound at the cost of a looser summary (re-tightening
// requires a rebuild). It leaves the non-null count alone; callers must
// also call NoteNonNull when the write replaced a NULL.
func (g *Grid[S, Q]) Widen(row int, code int64) {
	zi := row / g.zoneSize
	g.sums[zi] = g.kind.Admit(g.sums[zi], g.nonNull[zi] == 0, code)
}

// NoteNonNull records that a formerly NULL row now holds a value.
func (g *Grid[S, Q]) NoteNonNull(row int) { g.nonNull[row/g.zoneSize]++ }

// Prune probes every zone: all-NULL zones and zones whose summary cannot
// hold a match are skipped; null-free zones whose every value matches are
// emitted as Covered — "covered" means every row matches, the property
// multi-column intersection relies on — so the executor can short-circuit
// counting.
func (g *Grid[S, Q]) Prune(r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.sums)}
	for zi, nn := range g.nonNull {
		lo, hi := g.window(zi)
		overlaps, covers := false, false
		if nn != 0 {
			overlaps, covers = g.kind.Test(q, g.sums[zi])
		}
		emit(&res, lo, hi, !overlaps, covers && int(nn) == hi-lo)
	}
	return res
}

// PruneNulls emits candidates for IS NULL scans: zones with no NULL rows
// are skipped; all-NULL zones are covered (every row matches).
func (g *Grid[S, Q]) PruneNulls() core.PruneResult {
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.sums)}
	for zi, nn := range g.nonNull {
		lo, hi := g.window(zi)
		emit(&res, lo, hi, int(nn) == hi-lo, nn == 0)
	}
	return res
}

// emit records a probe's verdict on the zone over rows [lo, hi): skipped,
// or a candidate, coalesced with the window before it when they touch and
// agree on coverage.
func emit(res *core.PruneResult, lo, hi int, skip, covered bool) {
	if skip {
		res.RowsSkipped += hi - lo
		return
	}
	if k := len(res.Zones); k > 0 && res.Zones[k-1].Hi == lo && res.Zones[k-1].Covered == covered {
		res.Zones[k-1].Hi = hi
	} else {
		res.Zones = append(res.Zones, core.CandidateZone{ID: core.NoZoneID, Lo: lo, Hi: hi, Covered: covered})
	}
}

// CheckInvariants re-derives every zone from the column's physical state;
// codes must be exactly the Rows() rows the grid covers. A zone's non-null
// count must equal the column's (Prune's covered proof and PruneNulls read
// it in both directions) and its summary must admit every value in its
// rows — and equal the re-derived one when exact, i.e. when no Widen has
// loosened the zone since it was built.
func (g *Grid[S, Q]) CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec, exact bool) error {
	name := g.kind.Name()
	want := (g.n + g.zoneSize - 1) / g.zoneSize
	if codes.Len() != g.n || len(g.sums) != want || len(g.nonNull) != want {
		return fmt.Errorf("%s: %d summaries, %d counts over %d rows, want %d zones over the column's %d rows",
			name, len(g.sums), len(g.nonNull), g.n, want, codes.Len())
	}
	for zi, have := range g.sums {
		lo, hi := g.window(zi)
		derived, nonNull := g.kind.Summarize(codes, nulls, lo, hi)
		if nonNull != int(g.nonNull[zi]) {
			return fmt.Errorf("%s: zone %d nonNull=%d, rows [%d,%d) hold %d", name, zi, g.nonNull[zi], lo, hi, nonNull)
		}
		if nonNull > 0 && !g.kind.Holds(have, derived, exact) {
			return fmt.Errorf("%s: zone %d summary %#v, rows [%d,%d) derive %#v", name, zi, have, lo, hi, derived)
		}
	}
	return nil
}

// Observe is a no-op: a fixed grid does not learn.
func (g *Grid[S, Q]) Observe(core.PruneResult, []core.ZoneStats) {}

// Health reports no corruption: the grid has no invariant it could notice
// broken mid-probe.
func (g *Grid[S, Q]) Health() error { return nil }

// SetJournal ignores the sink: the grid never changes shape.
func (g *Grid[S, Q]) SetJournal(func(obs.LedgerRecord)) {}

// Introspect reports nothing: the grid keeps no per-zone counters.
func (g *Grid[S, Q]) Introspect() obs.SkipperSnapshot { return obs.SkipperSnapshot{} }

// ---------------------------------------------------------------------------
// Summary kind: the min/max hull (PolicyStatic).

// Hull is the value hull of a zone's non-null rows.
type Hull struct{ Min, Max int64 }

// hullKind summarises a zone by its Hull and tests the predicate's code
// intervals against it directly: a zone skips when no interval overlaps
// [Min, Max] and is covered when one interval encloses it.
type hullKind struct{}

func (hullKind) Name() string        { return "static" }
func (hullKind) Bytes(zones int) int { return zones * (8 + 8 + 8) }

func (hullKind) Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (Hull, int) {
	mn, mx, nonNull := scan.MinMax(codes, lo, hi, nulls, 0)
	if nonNull == 0 {
		return Hull{}, 0
	}
	return Hull{mn, mx}, nonNull
}

func (hullKind) Admit(h Hull, empty bool, code int64) Hull {
	if empty {
		return Hull{code, code}
	}
	return Hull{min(h.Min, code), max(h.Max, code)}
}

func (hullKind) Lower(r expr.Ranges) expr.Ranges { return r }

func (hullKind) Test(r expr.Ranges, h Hull) (overlaps, covers bool) {
	if len(r.Lo) == 1 { // a comparison, BETWEEN or equality: nothing to search
		lo, hi := r.Lo[0], r.Hi[0]
		return lo <= h.Max && h.Min <= hi, lo <= h.Min && h.Max <= hi
	}
	overlaps = r.Overlaps(h.Min, h.Max)
	return overlaps, overlaps && r.Covers(h.Min, h.Max)
}

func (hullKind) Holds(have, derived Hull, exact bool) bool {
	if exact {
		return have == derived
	}
	return have.Min <= derived.Min && derived.Max <= have.Max
}

// Build constructs the static zonemap over a column view: the Grid under
// the min/max hull.
func Build(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[Hull, expr.Ranges] {
	return NewGrid[Hull, expr.Ranges](hullKind{}, codes, nulls, zoneSize)
}

var _ core.Skipper = (*Grid[Hull, expr.Ranges])(nil)
