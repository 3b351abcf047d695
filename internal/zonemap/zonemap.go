// Package zonemap implements the zone directory every skipper keeps, and
// the static zonemap. A directory (Grid) holds zones of consecutive rows,
// each with a summary and a non-null count; blocks of BlockZones zones,
// each summarised by the union of its members; and an append tail,
// summarised as its rows arrive and folded into zones once it holds a
// zone's worth of rows. What a summary is, and how a predicate tests it,
// is a Kind: the min/max hull here (an expr.Hull, tested by
// expr.Clause.Test as in every layer), the bin mask in package imprint.
//
// Every summary is exact: the one its rows derive. The Grid owns, once for
// every layout, building and folding the tail, the block level, the
// PruneNulls walk and CheckInvariants. Without a Layout its zones have a
// fixed size (the static zonemap, the imprint) and Grid.Prune is the range
// probe: it tests every block, then the member zones of blocks that may
// match, then the tail — on arbitrary data every block overlaps, the
// overhead the paper shows motivates adaptivity. With a Layout (the
// adaptive zonemap) it also keeps a fine level of parts whose runs are the
// zones; the layout reshapes the zones and brings its own range probe.
package zonemap

import (
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// ErrCorrupt marks a broken layout: zones or parts that do not tile the
// indexed rows. A walk that finds one panics with an error wrapping it;
// the engine drops the skipper and scans in full.
var ErrCorrupt = errors.New("zonemap: metadata corrupt")

// Kind is one way of summarising a zone: S is the per-zone summary (the
// metadata type), Q the clause a predicate is lowered to once per query
// and tested against each summary. The summary of rows holding no value
// is the identity of Union, which Test finds matching nothing. Summaries
// are compared with ==: a stored summary is right when it equals the one
// its rows derive.
type Kind[S comparable, Q any] interface {
	// Name is the Metadata kind.
	Name() string
	// Bytes is the footprint of the kind's own state, beside the grid's
	// zones.
	Bytes() int
	// Summarize derives the summary and non-null count of rows [lo, hi).
	Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (s S, nonNull int)
	// Union summarises the values of two summaries together.
	Union(a, b S) S
	// Lower turns a predicate's code intervals into the clause.
	Lower(r expr.Ranges) Q
	// Test reports whether none, some or all of the values a zone
	// summarised by s may hold match.
	Test(q *Q, s S) expr.Match
}

// Zone is one entry of a directory, and of its fine level: rows [Lo, Hi),
// the summary of their values, and how many of them hold one. In a grid
// with a Layout, First is the index of the zone's first part; it is 0 in a
// part and in a grid without one. Row numbers are uint32, as every row id
// is (a table holds at most table.MaxRows rows), so a hull's entry is 32
// bytes and a bin mask's 24.
type Zone[S any] struct {
	Lo, Hi         uint32
	Sum            S
	NonNull, First uint32
}

// Rows returns the zone's row bounds as ints.
func (zn *Zone[S]) Rows() (lo, hi int) { return int(zn.Lo), int(zn.Hi) }

// Layout is the owner of a grid that reshapes its zones. The grid keeps
// the parts the layout cuts (Summarize appends those of rows [lo, hi)),
// keeps every zone a run of whole parts that names its first, and tells
// the layout of a tail fold that appended the zones from zone on.
type Layout[S any] interface {
	Summarize(parts []Zone[S], codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) []Zone[S]
	Folded(zone int)
}

// Grid is the zone directory of one column. Zones tile the indexed rows
// [0, Indexed()) in row order; the rows appended since, up to Rows(), are
// the tail. With a Layout, Parts tile the same rows too.
type Grid[S comparable, Q any] struct {
	core.Inert // a grid does not learn; a Layout answers for itself

	Zones  []Zone[S]
	Blocks []S       // block bi summarises the zones Members(bi, len(Zones))
	Parts  []Zone[S] // the fine level; nil without a Layout

	kind     Kind[S, Q]
	layout   Layout[S]
	zoneRows int     // rows a built or folded zone holds; the tail folds at this many
	tail     Zone[S] // the unindexed rows [Indexed(), Rows()), summarised as they arrive
}

// Directory returns an empty grid whose zones hold zoneRows rows
// (positive) when built — runs of the parts layout cuts, when layout is
// not nil. FoldTail fills it.
func Directory[S comparable, Q any](kind Kind[S, Q], zoneRows int, layout Layout[S]) Grid[S, Q] {
	if zoneRows <= 0 {
		panic(fmt.Sprintf("%s: zoneSize %d must be positive", kind.Name(), zoneRows))
	}
	return Grid[S, Q]{kind: kind, layout: layout, zoneRows: zoneRows}
}

// NewGrid summarises the codes.Len() rows of a column view in zones of
// zoneSize rows (positive). nulls may be nil.
func NewGrid[S comparable, Q any](kind Kind[S, Q], codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[S, Q] {
	g := Directory(kind, zoneSize, nil)
	g.FoldTail(codes, nulls)
	return &g
}

// Rows returns the number of rows covered, the unindexed tail included.
func (g *Grid[S, Q]) Rows() int { return int(g.tail.Hi) }

// Indexed returns the number of rows the zones tile; the tail follows.
func (g *Grid[S, Q]) Indexed() int { return int(g.tail.Lo) }

// Metadata reports the grid's shape and what it holds: the heap its zone,
// part and block slices take (their capacity, not their length), and the
// kind's own state.
func (g *Grid[S, Q]) Metadata() core.Metadata {
	bytes := (cap(g.Zones)+cap(g.Parts))*int(unsafe.Sizeof(Zone[S]{})) +
		cap(g.Blocks)*int(unsafe.Sizeof(*new(S))) + g.kind.Bytes()
	return core.Metadata{Kind: g.kind.Name(), Zones: len(g.Zones), Bytes: bytes, Enabled: true}
}

// summarize is rows [lo, hi) as one zone.
func (g *Grid[S, Q]) summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) Zone[S] {
	s, n := g.kind.Summarize(codes, nulls, lo, hi)
	return Zone[S]{Lo: uint32(lo), Hi: uint32(hi), Sum: s, NonNull: uint32(n)}
}

// join is the zone of adjacent zones a and b together, which starts at
// a's first part.
func (g *Grid[S, Q]) join(a, b Zone[S]) Zone[S] {
	return Zone[S]{Lo: a.Lo, Hi: b.Hi, Sum: g.kind.Union(a.Sum, b.Sum), NonNull: a.NonNull + b.NonNull, First: a.First}
}

// union is the zone of the adjacent windows ws (one or more) together.
func (g *Grid[S, Q]) union(ws []Zone[S]) Zone[S] {
	u := ws[0]
	for _, w := range ws[1:] {
		u = g.join(u, w)
	}
	return u
}

// Extend takes in the rows appended up to codes.Len(); codes must be the
// column's full code vector. They join the tail, whose summary reads only
// them, and the tail is folded once it holds a zone's worth of rows.
func (g *Grid[S, Q]) Extend(codes storage.Vec, nulls *bitvec.BitVec) {
	switch n, lo, hi := codes.Len(), g.Indexed(), g.Rows(); {
	case n-lo >= g.zoneRows:
		g.FoldTail(codes, nulls)
	case n > hi && hi > lo:
		g.tail = g.join(g.tail, g.summarize(codes, nulls, hi, n))
	case n > hi:
		g.tail = g.summarize(codes, nulls, lo, n)
	}
}

// FoldTail indexes the tail up to codes.Len(), whatever its length, in one
// read: zones of zoneRows rows (with a Layout, runs of parts until one
// holds that many, each naming its first part) from the tail's first row
// on, the last maybe shorter.
func (g *Grid[S, Q]) FoldTail(codes storage.Vec, nulls *bitvec.BitVec) {
	lo, hi := g.Indexed(), codes.Len()
	if hi <= lo {
		return
	}
	// Every zone but the last holds zoneRows rows or more: a build sizes
	// the zones exactly, or nearly, and a fold grows them as append does.
	zone, part := len(g.Zones), len(g.Parts)
	g.Zones = slices.Grow(g.Zones, (hi-lo+g.zoneRows-1)/g.zoneRows)
	if g.layout == nil {
		for ; lo < hi; lo += g.zoneRows {
			g.Zones = append(g.Zones, g.summarize(codes, nulls, lo, min(lo+g.zoneRows, hi)))
		}
	} else {
		g.Parts = g.layout.Summarize(g.Parts, codes, nulls, lo, hi)
		for k := part; k < len(g.Parts); k++ {
			p := g.Parts[k]
			if n := len(g.Zones) - 1; n >= zone && int(g.Zones[n].Hi-g.Zones[n].Lo) < g.zoneRows {
				g.Zones[n] = g.join(g.Zones[n], p)
			} else {
				p.First = uint32(k)
				g.Zones = append(g.Zones, p)
			}
		}
	}
	g.tail = Zone[S]{Lo: uint32(hi), Hi: uint32(hi)}
	g.Refold(zone)
	if g.layout != nil {
		g.layout.Folded(zone)
	}
}

// Prune tests each block, then the member zones of each block that may
// hold a match: zones whose summary cannot hold one are skipped, and
// null-free zones whose every value matches are emitted as Covered (every
// row matches), so the executor can short-circuit counting. The tail is
// tested last, as one more zone. ZonesProbed counts block, member and tail
// entries.
func (g *Grid[S, Q]) Prune(r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.Blocks)}
	for bi, b := range g.Blocks {
		lo, hi := Members(bi, len(g.Zones))
		if g.kind.Test(&q, b) == expr.MatchNone {
			res.Emit(&core.CandidateZone{Lo: int(g.Zones[lo].Lo), Hi: int(g.Zones[hi-1].Hi)}, true)
			continue
		}
		res.ZonesProbed += hi - lo
		for i := lo; i < hi; i++ {
			zn := &g.Zones[i]
			m := g.kind.Test(&q, zn.Sum)
			res.Emit(&core.CandidateZone{Lo: int(zn.Lo), Hi: int(zn.Hi), Covered: m == expr.MatchAll && zn.NonNull == zn.Hi-zn.Lo},
				m == expr.MatchNone)
		}
	}
	if t := &g.tail; t.Hi > t.Lo {
		res.ZonesProbed++
		m := g.kind.Test(&q, t.Sum)
		res.Emit(&core.CandidateZone{Lo: int(t.Lo), Hi: int(t.Hi), Covered: m == expr.MatchAll && t.NonNull == t.Hi-t.Lo}, m == expr.MatchNone)
	}
	return res
}

// PruneNulls emits candidates for IS NULL scans, zone by zone (blocks
// carry no null counts): zones with no NULL rows are skipped, all-NULL
// zones are covered, and the tail is a candidate. It checks the tiling as
// it walks, and panics with ErrCorrupt on a broken layout.
func (g *Grid[S, Q]) PruneNulls() core.PruneResult {
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.Zones)}
	prev := uint32(0)
	for i := range g.Zones {
		zn := &g.Zones[i]
		if zn.Lo != prev || zn.Hi <= zn.Lo {
			panic(BadTiling(i, zn.Lo, prev))
		}
		prev = zn.Hi
		res.Emit(&core.CandidateZone{Lo: int(zn.Lo), Hi: int(zn.Hi), Covered: zn.NonNull == 0}, zn.NonNull == zn.Hi-zn.Lo)
	}
	return g.EndProbe(res, prev)
}

// EndProbe finishes a probe walk that ended at row prev: the zones must
// end where the tail, a candidate, starts, or it panics with ErrCorrupt.
func (g *Grid[S, Q]) EndProbe(res core.PruneResult, prev uint32) core.PruneResult {
	if prev != g.tail.Lo {
		panic(fmt.Errorf("%w: zones end at %d, tailLo=%d", ErrCorrupt, prev, g.tail.Lo))
	}
	if g.tail.Hi > g.tail.Lo {
		res.Zones = append(res.Zones, core.CandidateZone{Lo: int(g.tail.Lo), Hi: int(g.tail.Hi)})
	}
	return res
}

// BadTiling is the fault a probe walk raises on zone idx, which starts at
// row got instead of want.
func BadTiling(idx int, got, want uint32) error {
	return fmt.Errorf("%w: zone %d starts at %d, want %d (layout gap or overlap)", ErrCorrupt, idx, got, want)
}

// CheckInvariants re-derives the directory from the column; codes must be
// exactly the Rows() rows covered. Zones and parts must tile [0, Indexed())
// — checked first, so a broken layout is named by the row where it breaks.
// Each part's (without a Layout, each zone's) rows, and the tail's, are
// read once: its non-null count (the covered proof and PruneNulls read it
// both ways) and its summary must be the ones they derive, or it is walked
// again to name the row it excludes. Each zone must be a run of whole
// parts that names its first (a zone that names another is corrupt: a
// split would walk the wrong parts), with their count and union; each
// block is its members' union.
func (g *Grid[S, Q]) CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec) error {
	parts, unit := g.Parts, "part"
	if g.layout == nil {
		parts, unit = g.Zones, "zone"
	}
	if blocks := (len(g.Zones) + BlockZones - 1) / BlockZones; codes.Len() != g.Rows() || len(g.Blocks) != blocks {
		return fmt.Errorf("zonemap: %d rows and %d blocks for a column of %d rows and %d zones, want %d blocks",
			g.tail.Hi, len(g.Blocks), codes.Len(), len(g.Zones), blocks)
	}
	if err := tiles("zone", g.Zones, g.tail.Lo); err != nil {
		return err
	}
	if err := tiles(unit, parts, g.tail.Lo); err != nil {
		return err
	}
	k := 0 // the zone's first part
	for zi := range g.Zones {
		zn, first := &g.Zones[zi], k
		if g.layout != nil && int(zn.First) != first {
			return fmt.Errorf("%w: zone %d [%d,%d) names part %d as its first, not part %d", ErrCorrupt, zi, zn.Lo, zn.Hi, zn.First, first)
		}
		for ; k < len(parts) && parts[k].Hi <= zn.Hi; k++ {
			if err := g.checkRows(unit, k, &parts[k], codes, nulls); err != nil {
				return err
			}
		}
		if k == first || parts[k-1].Hi != zn.Hi {
			return fmt.Errorf("zonemap: zone %d [%d,%d) ends inside part %d", zi, zn.Lo, zn.Hi, k)
		}
		if union := g.union(parts[first:k]); union.Sum != zn.Sum || union.NonNull != zn.NonNull {
			return fmt.Errorf("zonemap: zone %d [%d,%d) summary %+v nonNull=%d, its parts' %+v nonNull=%d",
				zi, zn.Lo, zn.Hi, zn.Sum, zn.NonNull, union.Sum, union.NonNull)
		}
	}
	for bi, b := range g.Blocks {
		lo, hi := Members(bi, len(g.Zones))
		if union := g.union(g.Zones[lo:hi]).Sum; union != b {
			return fmt.Errorf("zonemap: block %d %+v, its zones' union %+v", bi, b, union)
		}
	}
	if g.tail.Hi > g.tail.Lo {
		return g.checkRows("tail", 0, &g.tail, codes, nulls)
	}
	return nil
}

// checkRows re-derives window k, named unit, from its rows: its non-null
// count and its summary must be the derived ones.
func (g *Grid[S, Q]) checkRows(unit string, k int, p *Zone[S], codes storage.Vec, nulls *bitvec.BitVec) error {
	lo, hi := p.Rows()
	derived := g.summarize(codes, nulls, lo, hi)
	if derived.NonNull != p.NonNull {
		return fmt.Errorf("zonemap: %s %d [%d,%d) nonNull=%d, its rows hold %d", unit, k, p.Lo, p.Hi, p.NonNull, derived.NonNull)
	}
	if derived.Sum != p.Sum {
		return g.excluded(unit, k, p, codes, nulls, derived.Sum)
	}
	return nil
}

// tiles checks that the windows ws, named what, are non-empty and tile
// [0, end) in order.
func tiles[S any](what string, ws []Zone[S], end uint32) error {
	prev := uint32(0)
	for i, w := range ws {
		if w.Lo != prev {
			return fmt.Errorf("zonemap: %s %d starts at %d, want %d (gap or overlap)", what, i, w.Lo, prev)
		}
		if w.Hi <= w.Lo {
			return fmt.Errorf("zonemap: %s %d empty [%d,%d)", what, i, w.Lo, w.Hi)
		}
		prev = w.Hi
	}
	if prev != end {
		return fmt.Errorf("zonemap: %ss end at %d, tailLo=%d", what, prev, end)
	}
	return nil
}

// excluded is the error for window k, named unit, whose summary differs
// from derived, the one its rows derive: it names the first row the
// summary excludes (one whose own summary a Union with it changes), or,
// when it excludes none and so admits more than its rows hold, the two
// summaries.
func (g *Grid[S, Q]) excluded(unit string, k int, p *Zone[S], codes storage.Vec, nulls *bitvec.BitVec, derived S) error {
	lo, hi := p.Rows()
	for r := lo; r < hi; r++ {
		if s, n := g.kind.Summarize(codes, nulls, r, r+1); n > 0 && g.kind.Union(p.Sum, s) != p.Sum {
			return fmt.Errorf("zonemap: %s %d summary %+v would exclude row %d code %d", unit, k, p.Sum, r, codes.At(r))
		}
	}
	return fmt.Errorf("zonemap: %s %d [%d,%d) summary %+v, its rows derive %+v", unit, k, p.Lo, p.Hi, p.Sum, derived)
}

// ---------------------------------------------------------------------------
// The coarse probe level.

// BlockZones is the fan-in of the coarse probe level: a probe tests each
// block's summary first and the member zones of overlapping blocks only,
// so tens of thousands of zones still cost O(zones/64 + hits) tests.
const BlockZones = 64

// Members returns the zones [lo, hi) block bi summarises among zones zones.
func Members(bi, zones int) (lo, hi int) { return bi * BlockZones, min((bi+1)*BlockZones, zones) }

// Refold sizes the block level to the zones and re-summarises the blocks
// from the one holding zone from — the first zone an edit moved or
// appended — on.
func (g *Grid[S, Q]) Refold(from int) {
	n := (len(g.Zones) + BlockZones - 1) / BlockZones
	g.Blocks = slices.Grow(g.Blocks, max(0, n-len(g.Blocks)))[:n]
	for bi := from / BlockZones; bi < n; bi++ {
		g.reblock(bi)
	}
}

// reblock re-summarises block bi as the union of its member zones.
func (g *Grid[S, Q]) reblock(bi int) {
	lo, hi := Members(bi, len(g.Zones))
	g.Blocks[bi] = g.union(g.Zones[lo:hi]).Sum
}

// ---------------------------------------------------------------------------
// Summary kind: the min/max hull (PolicyStatic).

// HullKind summarises a zone by its expr.Hull and tests it with the
// predicate's expr.Clause: a zone skips when no interval overlaps its hull
// and is covered when one interval encloses it. The adaptive zonemap's
// zones are this kind's.
type HullKind struct{}

func (HullKind) Name() string { return "static" }
func (HullKind) Bytes() int   { return 0 }

func (HullKind) Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (expr.Hull, int) {
	return scan.MinMax(codes, lo, hi, nulls, 0)
}

func (HullKind) Union(a, b expr.Hull) expr.Hull              { return a.Union(b) }
func (HullKind) Lower(r expr.Ranges) expr.Clause             { return r.Clause() }
func (HullKind) Test(q *expr.Clause, h expr.Hull) expr.Match { return q.Test(h) }

// Build constructs the static zonemap over a column view: the Grid under
// the min/max hull.
func Build(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[expr.Hull, expr.Clause] {
	return NewGrid[expr.Hull, expr.Clause](HullKind{}, codes, nulls, zoneSize)
}

var _ core.Skipper = (*Grid[expr.Hull, expr.Clause])(nil)
