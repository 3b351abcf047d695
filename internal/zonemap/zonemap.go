// Package zonemap implements the fixed-grid skipper — zones of a fixed
// number of consecutive rows, one summary and one non-null count per zone
// — its classic summary kind, the static zonemap the adaptive zonemap is
// measured against, and the coarse probe level every zone directory uses:
// blocks of BlockZones zones, each summarised by the union of its members.
//
// What a zone's summary is, and how a predicate is tested against it, is
// a Kind: the min/max hull here (an expr.Hull, tested by expr.Clause.Test
// as in every layer), the bin mask in package imprint. Everything else — zone layout, the block level, Extend,
// PruneNulls, invariant re-derivation — is the Grid's, once. A probe tests
// every block and the member zones of the blocks that may match, as the
// adaptive zonemap's does; on arbitrary data distributions every block
// overlaps and the probe costs a test per zone and per block, the overhead
// the paper shows is unrecoverable there, motivating adaptivity.
package zonemap

import (
	"fmt"
	"slices"
	"unsafe"

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
	// Bytes is the footprint of the kind's own state, beside the grid's
	// per-zone summaries.
	Bytes() int
	// Summarize derives the summary and non-null count of rows [lo, hi).
	Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (s S, nonNull int)
	// Admit loosens s to hold code; empty says s holds no value yet.
	Admit(s S, empty bool, code int64) S
	// Union summarises the values of two summaries together.
	Union(a, b S) S
	// Lower turns a predicate's code intervals into the clause.
	Lower(r expr.Ranges) Q
	// Test reports whether none, some or all of the values a zone
	// summarised by s may hold match.
	Test(q *Q, s S) expr.Match
	// Holds reports whether the stored summary admits everything the
	// re-derived one does — and nothing more when exact.
	Holds(have, derived S, exact bool) bool
}

// Grid is a fixed-granularity skipper over a column prefix of n rows:
// zone i covers rows [i*zoneSize, min((i+1)*zoneSize, n)). It never
// learns: Observe, the journal and Introspect have nothing to do.
type Grid[S, Q any] struct {
	kind     Kind[S, Q]
	zoneSize int
	n        int
	sums     []S
	nonNull  []int32 // rows carrying a value, per zone
	blocks   Blocks[S, Q]
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

// Metadata reports the grid's shape and what it holds: a summary and a
// non-null count per zone, the block level, and the kind's own state.
func (g *Grid[S, Q]) Metadata() core.Metadata {
	var b Block[S]
	bytes := len(g.sums)*int(unsafe.Sizeof(b.Sum)+unsafe.Sizeof(int32(0))) +
		len(g.blocks)*int(unsafe.Sizeof(b)) + g.kind.Bytes()
	return core.Metadata{Kind: g.kind.Name(), Zones: len(g.sums), Bytes: bytes, Enabled: true}
}

// span returns the row window of zones [lo, hi).
func (g *Grid[S, Q]) span(lo, hi int) core.CandidateZone {
	return core.CandidateZone{ID: core.NoZoneID, Lo: lo * g.zoneSize, Hi: min(hi*g.zoneSize, g.n)}
}

// zone is zone zi's summary, ok when the zone holds a value.
func (g *Grid[S, Q]) zone(zi int) (S, bool) { return g.sums[zi], g.nonNull[zi] > 0 }

// fold is the block of zones [lo, hi): the union of their summaries.
func (g *Grid[S, Q]) fold(lo, hi int) (b Block[S]) {
	for zi := lo; zi < hi; zi++ {
		if s, ok := g.zone(zi); ok && b.HasData {
			b.Sum = g.kind.Union(b.Sum, s)
		} else if ok {
			b = Block[S]{s, true}
		}
	}
	return b
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
	g.blocks.Refold(whole, len(g.sums), g.fold)
}

// Widen loosens the enclosing zone's summary, and its block's, to admit an
// updated value at row: pruning stays sound at the cost of a looser
// summary (re-tightening requires a rebuild). It leaves the non-null count
// alone; callers must also call NoteNonNull when the write replaced a NULL.
func (g *Grid[S, Q]) Widen(row int, code int64) {
	zi := row / g.zoneSize
	g.sums[zi] = g.kind.Admit(g.sums[zi], g.nonNull[zi] == 0, code)
	g.blocks.Admit(g.kind, zi, code)
}

// NoteNonNull records that a formerly NULL row now holds a value.
func (g *Grid[S, Q]) NoteNonNull(row int) { g.nonNull[row/g.zoneSize]++ }

// Prune tests each block, then the member zones of each block that may
// hold a match: a block that holds no value or cannot overlap the
// predicate skips its rows whole; inside the others, all-NULL zones and
// zones whose summary cannot hold a match are skipped, and null-free zones
// whose every value matches are emitted as Covered — "covered" means every
// row matches, the property multi-column intersection relies on — so the
// executor can short-circuit counting. ZonesProbed counts block and member
// entries.
func (g *Grid[S, Q]) Prune(r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.blocks)}
	for bi, b := range g.blocks {
		lo, hi := Members(bi, len(g.sums))
		if c := g.span(lo, hi); !b.HasData || g.kind.Test(&q, b.Sum) == expr.MatchNone {
			res.Emit(&c, true)
			continue
		}
		res.ZonesProbed += hi - lo
		for zi := lo; zi < hi; zi++ {
			c, nn, m := g.span(zi, zi+1), int(g.nonNull[zi]), expr.MatchNone
			if nn != 0 {
				m = g.kind.Test(&q, g.sums[zi])
			}
			c.Covered = m == expr.MatchAll && nn == c.Hi-c.Lo
			res.Emit(&c, m == expr.MatchNone)
		}
	}
	return res
}

// PruneNulls emits candidates for IS NULL scans, zone by zone (blocks
// carry no null counts): zones with no NULL rows are skipped; all-NULL
// zones are covered (every row matches).
func (g *Grid[S, Q]) PruneNulls() core.PruneResult {
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.sums)}
	for zi, nn := range g.nonNull {
		c := g.span(zi, zi+1)
		c.Covered = nn == 0
		res.Emit(&c, int(nn) == c.Hi-c.Lo)
	}
	return res
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
		w := g.span(zi, zi+1)
		derived, nonNull := g.kind.Summarize(codes, nulls, w.Lo, w.Hi)
		if nonNull != int(g.nonNull[zi]) {
			return fmt.Errorf("%s: zone %d nonNull=%d, rows [%d,%d) hold %d", name, zi, g.nonNull[zi], w.Lo, w.Hi, nonNull)
		}
		if nonNull > 0 && !g.kind.Holds(have, derived, exact) {
			return fmt.Errorf("%s: zone %d summary %#v, rows [%d,%d) derive %#v", name, zi, have, w.Lo, w.Hi, derived)
		}
	}
	if err := g.blocks.Check(g.kind, len(g.sums), g.zone); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// The coarse probe level, which every zone directory uses.

// BlockZones is the fan-in of the coarse probe level: a probe tests each
// block's summary first and the member zones of overlapping blocks only,
// so tens of thousands of zones still cost O(zones/64 + hits) tests.
const BlockZones = 64

// Block summarises a run of consecutive zones by the union of the
// summaries of its members that hold a value.
type Block[S any] struct {
	Sum     S
	HasData bool // any member zone holds a value
}

// Blocks is the coarse level of a directory of zones summarised by a
// Kind[S, Q]: block bi summarises the zones Members(bi, zones).
type Blocks[S, Q any] []Block[S]

// Members returns the zones [lo, hi) block bi summarises among zones zones.
func Members(bi, zones int) (lo, hi int) { return bi * BlockZones, min((bi+1)*BlockZones, zones) }

// Refold sizes the level to zones zones and refolds the blocks from the
// one holding zone from — the first zone an edit moved or rebuilt — on;
// fold(lo, hi) is the block of member zones [lo, hi).
func (bs *Blocks[S, Q]) Refold(from, zones int, fold func(lo, hi int) Block[S]) {
	n := (zones + BlockZones - 1) / BlockZones
	*bs = slices.Grow(*bs, max(0, n-len(*bs)))[:n]
	for bi := from / BlockZones; bi < n; bi++ {
		(*bs)[bi] = fold(Members(bi, zones))
	}
}

// Admit loosens the block holding zone zi to hold code, as Widen does the zone.
func (bs Blocks[S, Q]) Admit(kind Kind[S, Q], zi int, code int64) {
	b := &bs[zi/BlockZones]
	b.Sum, b.HasData = kind.Admit(b.Sum, !b.HasData, code), true
}

// Check fails unless the level is sized to zones zones and every block
// admits everything each of its members that holds a value does.
func (bs Blocks[S, Q]) Check(kind Kind[S, Q], zones int, zone func(i int) (S, bool)) error {
	if want := (zones + BlockZones - 1) / BlockZones; len(bs) != want {
		return fmt.Errorf("%d blocks for %d zones, want %d", len(bs), zones, want)
	}
	for i := 0; i < zones; i++ {
		if s, ok := zone(i); ok && (!bs[i/BlockZones].HasData || !kind.Holds(bs[i/BlockZones].Sum, s, false)) {
			return fmt.Errorf("block %d %+v excludes zone %d %+v", i/BlockZones, bs[i/BlockZones], i, s)
		}
	}
	return nil
}

// Observe is a no-op: a fixed grid does not learn.
func (g *Grid[S, Q]) Observe(core.PruneResult, []core.ZoneStats) {}

// SetJournal ignores the sink: the grid never changes shape.
func (g *Grid[S, Q]) SetJournal(func(obs.LedgerRecord)) {}

// Introspect reports nothing: the grid keeps no per-zone counters.
func (g *Grid[S, Q]) Introspect() obs.SkipperSnapshot { return obs.SkipperSnapshot{} }

// ---------------------------------------------------------------------------
// Summary kind: the min/max hull (PolicyStatic).

// HullKind summarises a zone by its expr.Hull and tests it with the
// predicate's expr.Clause: a zone skips when no interval overlaps its hull
// and is covered when one interval encloses it. The adaptive zonemap's
// blocks are this kind's.
type HullKind struct{}

func (HullKind) Name() string { return "static" }
func (HullKind) Bytes() int   { return 0 }

func (HullKind) Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (expr.Hull, int) {
	return scan.MinMax(codes, lo, hi, nulls, 0)
}

func (HullKind) Admit(h expr.Hull, empty bool, code int64) expr.Hull {
	if empty {
		h = expr.EmptyHull
	}
	return h.Admit(code)
}

func (HullKind) Union(a, b expr.Hull) expr.Hull              { return a.Union(b) }
func (HullKind) Lower(r expr.Ranges) expr.Clause             { return r.Clause() }
func (HullKind) Test(q *expr.Clause, h expr.Hull) expr.Match { return q.Test(h) }

func (HullKind) Holds(have, derived expr.Hull, exact bool) bool {
	return have == derived || !exact && have.Encloses(derived)
}

// Build constructs the static zonemap over a column view: the Grid under
// the min/max hull.
func Build(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[expr.Hull, expr.Clause] {
	return NewGrid[expr.Hull, expr.Clause](HullKind{}, codes, nulls, zoneSize)
}

var _ core.Skipper = (*Grid[expr.Hull, expr.Clause])(nil)
