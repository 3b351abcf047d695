// Package zonemap implements the zone directory every skipper keeps, and
// the static zonemap. A directory (Grid) holds zones of consecutive rows,
// each with a summary and a non-null count; blocks of BlockZones zones,
// each summarised by the union of its members; and an append tail,
// summarised as its rows arrive and folded into zones once it holds a
// zone's worth of rows. What a summary is, and how a predicate tests it,
// is a Kind: the min/max hull here (hulls.go), the bin mask in package
// imprint. A level's summaries sit in an array of the kind's beside its
// entries, at the column's code width, and the kind's kernel tests a batch
// of them at a time.
//
// Every summary is exact: the one its rows derive. The Grid owns, once for
// every layout, building and folding the tail, the block level, the probe
// walk, the PruneNulls walk and CheckInvariants. Without a Layout its zones
// have a fixed size (the static zonemap, the imprint); with one (the
// adaptive zonemap) it also keeps a fine level of parts whose runs are the
// zones, which the layout reshapes.
package zonemap

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// ErrCorrupt marks a broken layout: zones or parts that do not tile the
// indexed rows. A walk that finds one panics with an error wrapping it;
// the engine drops the skipper and scans in full.
var ErrCorrupt = errors.New("zonemap: metadata corrupt")

// Kind is one way of summarising a zone: S is the summary as folds and
// checks read it, Q the clause a predicate is lowered to once per query.
// The summary of no value is the identity of Union, and matches nothing.
// A stored summary is right when it equals (==) the one its rows derive.
type Kind[S comparable, Q any] interface {
	Name() string // the Metadata kind
	Bytes() int   // the footprint of the kind's own state
	// Summarize derives the summary and non-null count of rows [lo, hi).
	Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (s S, nonNull int)
	Union(a, b S) S
	Lower(r expr.Ranges) Q
	Level() Level[S, Q] // a new, empty, level of summaries
}

// Level holds the summaries of one level of a directory — its zones',
// parts', blocks' or tail's.
type Level[S, Q any] interface {
	At(i int) S
	Set(i int, s S)
	Copy(dst, lo, hi int) // entries [lo, hi) to dst, as copy does
	Resize(n int)         // to n entries, the first ones kept
	Bytes() int           // the heap it takes: its capacity
	Widen() Level[S, Q]   // the level at a column's 8-byte codes; itself if width-free
	// Probe is the kind's kernel over entries [lo, hi), at most BlockZones:
	// bit i-lo of none is set when no value entry i summarises matches q,
	// of all when some do and every one does.
	Probe(q Q, lo, hi int) (none, all uint64)
}

// Zone is one entry of a directory: rows [Lo, Hi) and how many of them
// hold a value; with a Layout, First is the index of the zone's first
// part. Row numbers are uint32, as every row id is (table.MaxRows).
type Zone struct{ Lo, Hi, NonNull, First uint32 }

// Rows returns the zone's row bounds as ints.
func (zn *Zone) Rows() (lo, hi int) { return int(zn.Lo), int(zn.Hi) }

func (zn *Zone) full() bool { return zn.NonNull == zn.Hi-zn.Lo }

// Part is one entry of a grid's fine level: its rows end at Hi and start
// where the part before ends.
type Part struct{ Hi, NonNull uint32 }

// Entry is a zone or a part with its summary, as folds, edits and checks
// use it.
type Entry[S any] struct {
	Zone
	Sum S
}

// Layout is the owner of a grid that reshapes its zones. The grid keeps
// the parts the layout cuts of rows [lo, hi), in row order, keeps every
// zone a run of whole parts that names its first, and tells the layout of
// a tail fold that appended the zones from zone on.
type Layout[S any] interface {
	Cut(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int, part func(hi, nonNull int, s S))
	Folded(zone int)
}

// Grid is the zone directory of one column. Zones tile the indexed rows
// [0, Indexed()) in row order; the rows appended since, up to Rows(), are
// the tail. With a Layout, Parts tile the same rows too. Zone i's summary
// is ZoneSums' entry i, part k's PartSums'.
type Grid[S comparable, Q any] struct {
	core.Inert // a grid does not learn; a Layout answers for itself

	Zones            []Zone
	Parts            []Part // the fine level; nil without a Layout
	ZoneSums, Blocks Level[S, Q]
	PartSums         Level[S, Q]

	kind     Kind[S, Q]
	layout   Layout[S]
	zoneRows int         // rows a built or folded zone holds; the tail folds at this many
	tail     Zone        // the unindexed rows [Indexed(), Rows()), summarised as they arrive
	tailSum  Level[S, Q] // its summary, while it holds a row
}

// Directory returns an empty grid whose zones hold zoneRows rows
// (positive) when built — runs of the parts layout cuts, with a layout.
// FoldTail fills it.
func Directory[S comparable, Q any](kind Kind[S, Q], zoneRows int, layout Layout[S]) Grid[S, Q] {
	if zoneRows <= 0 {
		panic(fmt.Sprintf("%s: zoneSize %d must be positive", kind.Name(), zoneRows))
	}
	g := Grid[S, Q]{kind: kind, layout: layout, zoneRows: zoneRows,
		ZoneSums: kind.Level(), Blocks: kind.Level(), PartSums: kind.Level(), tailSum: kind.Level()}
	g.tailSum.Resize(1)
	return g
}

// NewGrid summarises the codes.Len() rows of a column view in zones of
// zoneSize rows (positive). nulls may be nil.
func NewGrid[S comparable, Q any](kind Kind[S, Q], codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[S, Q] {
	g := Directory(kind, zoneSize, nil)
	g.FoldTail(codes, nulls)
	return &g
}

// Rows returns the number of rows covered, the unindexed tail included;
// Indexed the number the zones tile.
func (g *Grid[S, Q]) Rows() int    { return int(g.tail.Hi) }
func (g *Grid[S, Q]) Indexed() int { return int(g.tail.Lo) }

// Metadata reports the grid's shape and the heap its levels take (their
// capacity, not their length), and the kind's own state.
func (g *Grid[S, Q]) Metadata() core.Metadata {
	bytes := cap(g.Zones)*int(unsafe.Sizeof(Zone{})) + cap(g.Parts)*int(unsafe.Sizeof(Part{})) +
		g.ZoneSums.Bytes() + g.Blocks.Bytes() + g.PartSums.Bytes() + g.tailSum.Bytes() + g.kind.Bytes()
	return core.Metadata{Kind: g.kind.Name(), Zones: len(g.Zones), Bytes: bytes, Enabled: true}
}

// Zone returns zone i with its summary.
func (g *Grid[S, Q]) Zone(i int) Entry[S] { return Entry[S]{g.Zones[i], g.ZoneSums.At(i)} }

// Part returns part k with its summary, as a zone of that one part.
func (g *Grid[S, Q]) Part(k int) Entry[S] {
	lo := uint32(0)
	if k > 0 {
		lo = g.Parts[k-1].Hi
	}
	return Entry[S]{Zone{lo, g.Parts[k].Hi, g.Parts[k].NonNull, uint32(k)}, g.PartSums.At(k)}
}

// SetZone writes e as zone i, i <= len(Zones): i == len(Zones) appends it.
func (g *Grid[S, Q]) SetZone(i int, e Entry[S]) {
	if i == len(g.Zones) {
		g.Zones = append(g.Zones, e.Zone)
		g.ZoneSums.Resize(i + 1)
	}
	g.Zones[i] = e.Zone
	g.ZoneSums.Set(i, e.Sum)
}

func (g *Grid[S, Q]) summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) Entry[S] {
	s, n := g.kind.Summarize(codes, nulls, lo, hi)
	return Entry[S]{Zone{Lo: uint32(lo), Hi: uint32(hi), NonNull: uint32(n)}, s}
}

// join is adjacent zones a and b as one, which starts at a's first part.
func (g *Grid[S, Q]) join(a, b Entry[S]) Entry[S] {
	return Entry[S]{Zone{a.Lo, b.Hi, a.NonNull + b.NonNull, a.First}, g.kind.Union(a.Sum, b.Sum)}
}

// Union is zones [lo, hi), hi > lo, as one zone.
func (g *Grid[S, Q]) Union(lo, hi int) Entry[S] { return g.union(g.Zone, lo, hi) }

// union is the adjacent windows at(lo), …, at(hi-1) as one zone.
func (g *Grid[S, Q]) union(at func(int) Entry[S], lo, hi int) Entry[S] {
	u := at(lo)
	for i := lo + 1; i < hi; i++ {
		u = g.join(u, at(i))
	}
	return u
}

// widen rewrites every level wide, in place, once the codes are: from the
// build over a wide view, or the append that escalates a narrow column.
func (g *Grid[S, Q]) widen(codes storage.Vec) {
	if codes.W != nil {
		g.ZoneSums, g.Blocks, g.PartSums, g.tailSum = g.ZoneSums.Widen(), g.Blocks.Widen(), g.PartSums.Widen(), g.tailSum.Widen()
	}
}

// Extend takes in the rows appended up to codes.Len(); codes must be the
// column's full code vector. They join the tail, whose summary reads only
// them, and the tail is folded once it holds a zone's worth of rows.
func (g *Grid[S, Q]) Extend(codes storage.Vec, nulls *bitvec.BitVec) {
	g.widen(codes)
	t := Entry[S]{g.tail, g.tailSum.At(0)}
	switch n, lo, hi := codes.Len(), g.Indexed(), g.Rows(); {
	case n-lo >= g.zoneRows:
		g.FoldTail(codes, nulls)
		return
	case n > hi && hi > lo:
		t = g.join(t, g.summarize(codes, nulls, hi, n))
	case n > hi:
		t = g.summarize(codes, nulls, lo, n)
	}
	g.tail = t.Zone
	g.tailSum.Set(0, t.Sum)
}

// FoldTail indexes the tail up to codes.Len(), whatever its length, in one
// read: zones of zoneRows rows (with a Layout, runs of parts until one
// holds that many, each naming its first part) from the tail's first row
// on, the last maybe shorter.
func (g *Grid[S, Q]) FoldTail(codes storage.Vec, nulls *bitvec.BitVec) {
	g.widen(codes)
	lo, hi := g.Indexed(), codes.Len()
	if hi <= lo {
		return
	}
	// Every zone but the last holds zoneRows rows or more: a build sizes
	// the zones exactly, or nearly, and a fold grows them as append does.
	zone := len(g.Zones)
	g.Zones = slices.Grow(g.Zones, (hi-lo+g.zoneRows-1)/g.zoneRows)
	g.ZoneSums.Resize(cap(g.Zones)) // as much room as the zones have
	g.ZoneSums.Resize(zone)
	if g.layout == nil {
		for ; lo < hi; lo += g.zoneRows {
			g.SetZone(len(g.Zones), g.summarize(codes, nulls, lo, min(lo+g.zoneRows, hi)))
		}
	} else {
		g.layout.Cut(codes, nulls, lo, hi, func(hi, nonNull int, s S) {
			k := len(g.Parts)
			g.Parts = append(g.Parts, Part{uint32(hi), uint32(nonNull)})
			g.PartSums.Resize(k + 1)
			g.PartSums.Set(k, s)
			if n := len(g.Zones) - 1; n >= zone && int(g.Zones[n].Hi-g.Zones[n].Lo) < g.zoneRows {
				g.SetZone(n, g.join(g.Zone(n), g.Part(k)))
			} else {
				g.SetZone(n+1, g.Part(k))
			}
		})
	}
	g.tail = Zone{Lo: uint32(hi), Hi: uint32(hi)}
	g.Refold(zone)
	if g.layout != nil {
		g.layout.Folded(zone)
	}
}

// Walk tests the blocks against q, BlockZones at a time, and calls skip
// with the zones [lo, hi) of each run of blocks q cannot match, and enter
// with those of each other block and the kernel's verdict on them.
func (g *Grid[S, Q]) Walk(q Q, skip func(lo, hi int), enter func(lo, hi int, none, all uint64)) {
	for b0, nb := 0, g.blocks(); b0 < nb; b0 += BlockZones {
		n := min(BlockZones, nb-b0)
		out, _ := g.Blocks.Probe(q, b0, b0+n)
		for i := 0; i < n; i++ {
			lo, hi := Members(b0+i, len(g.Zones))
			if out>>i&1 != 0 {
				i = min(i+bits.TrailingZeros64(^(out>>i)), n) - 1
				_, hi = Members(b0+i, len(g.Zones))
				skip(lo, hi)
				continue
			}
			none, all := g.ZoneSums.Probe(q, lo, hi)
			enter(lo, hi, none, all)
		}
	}
}

// Covered is all less the zones [lo, hi), zone lo+i at bit i, that hold
// a NULL: of the zones the kernel finds all matching, those a probe spares
// their scan. With a Layout, whose edits move zones, it also checks that
// [lo, hi) tile their rows from row prev on, or panics with ErrCorrupt. It
// returns the row they end at.
func (g *Grid[S, Q]) Covered(lo, hi int, prev uint32, all uint64) (uint64, uint32) {
	if g.layout == nil { // fixed zones: it reads only those the kernel proved
		for m := all; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); !g.Zones[lo+i].full() {
				all &^= 1 << i
			}
		}
		return all, g.Zones[hi-1].Hi
	}
	full := uint64(0)
	for i, zn := range g.Zones[lo:hi] {
		if zn.Lo != prev || zn.Hi <= zn.Lo {
			panic(BadTiling(lo+i, zn.Lo, prev))
		}
		if prev = zn.Hi; zn.full() {
			full |= 1 << i
		}
	}
	return all & full, prev
}

// Probe is the range probe every layout shares: each block, then the
// member zones of each block that may hold a match. Zones whose summary
// cannot hold one are skipped; null-free zones whose every value matches
// are Covered windows. Into res go the entries tested, the rows skipped,
// the windows and, with misses, why each other candidate did not prune:
// NULL rows blocked the coverage proof, or its summary straddles q. It
// checks the tiling of the first zone of each block it skips (whose
// summary encloses its rows wherever zone bounds drifted) and, with a
// Layout, of each zone of a block it enters; it returns the row the zones
// end at.
func (g *Grid[S, Q]) Probe(q Q, res *core.PruneResult, misses bool) (prev uint32) {
	res.ZonesProbed += g.blocks()
	g.Walk(q, func(lo, hi int) {
		bad := g.Zones[lo].Lo ^ prev // each block starts where the one before ends
		for b := lo + BlockZones; b < hi; b += BlockZones {
			bad |= g.Zones[b].Lo ^ g.Zones[b-1].Hi
		}
		for b := lo; bad != 0; b, prev = b+BlockZones, g.Zones[b+BlockZones-1].Hi {
			if g.Zones[b].Lo != prev {
				panic(BadTiling(b, g.Zones[b].Lo, prev))
			}
		}
		res.RowsSkipped += int(g.Zones[hi-1].Hi - prev)
		prev = g.Zones[hi-1].Hi
	}, func(lo, hi int, none, all uint64) {
		covered, end := g.Covered(lo, hi, prev, all)
		prev = end
		res.ZonesProbed += hi - lo
		if misses {
			res.MissNullStraddle += bits.OnesCount64(all &^ covered)
			res.MissOverlap += bits.OnesCount64(^(none | all) & (1<<(hi-lo) - 1))
		}
		for i, n := 0, hi-lo; i < n; {
			skip, c := none>>i&1 != 0, covered>>i&1
			run := ^none & (covered ^ (c - 1)) // zones alike to zone lo+i
			if skip {
				run = none
			}
			j := min(i+bits.TrailingZeros64(^(run>>i)), n)
			res.Emit(&core.CandidateZone{Lo: int(g.Zones[lo+i].Lo), Hi: int(g.Zones[lo+j-1].Hi), Covered: c != 0}, skip)
			i = j
		}
	})
	return prev
}

// Prune is the range probe of a grid without a Layout: Probe, then the
// tail tested as one more zone.
func (g *Grid[S, Q]) Prune(r expr.Ranges) core.PruneResult {
	q := g.kind.Lower(r)
	res := core.PruneResult{Enabled: true}
	g.Probe(q, &res, false)
	if t := &g.tail; t.Hi > t.Lo {
		res.ZonesProbed++
		none, all := g.tailSum.Probe(q, 0, 1)
		res.Emit(&core.CandidateZone{Lo: int(t.Lo), Hi: int(t.Hi), Covered: all != 0 && t.full()}, none != 0)
	}
	return res
}

// PruneNulls emits candidates for IS NULL scans, zone by zone (blocks
// carry no null counts): zones with no NULL rows are skipped, all-NULL
// zones are covered, and the tail is a candidate. It checks the tiling.
func (g *Grid[S, Q]) PruneNulls() core.PruneResult {
	res := core.PruneResult{Enabled: true, ZonesProbed: len(g.Zones)}
	prev := uint32(0)
	for i := range g.Zones {
		zn := &g.Zones[i]
		if zn.Lo != prev || zn.Hi <= zn.Lo {
			panic(BadTiling(i, zn.Lo, prev))
		}
		prev = zn.Hi
		res.Emit(&core.CandidateZone{Lo: int(zn.Lo), Hi: int(zn.Hi), Covered: zn.NonNull == 0}, zn.full())
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
// exactly the Rows() rows covered. Zones must tile [0, Indexed()) —
// checked first, so a broken layout is named by the row where it breaks.
// Each part's (without a Layout, each zone's) rows, and the tail's, are
// read once: its non-null count and its summary must be the ones they
// derive, or it is walked again to name the row it excludes. Each zone
// must be a run of whole, non-empty, parts that names its first (or a
// split would walk the wrong parts), with their count and union, and the
// parts end with the zones; each block is its members' union.
func (g *Grid[S, Q]) CheckInvariants(codes storage.Vec, nulls *bitvec.BitVec) error {
	part, parts, unit := g.Part, len(g.Parts), "part"
	if g.layout == nil {
		part, parts, unit = g.Zone, len(g.Zones), "zone"
	}
	if codes.Len() != g.Rows() {
		return fmt.Errorf("zonemap: %d rows for a column of %d rows", g.tail.Hi, codes.Len())
	}
	prev := uint32(0)
	for i, zn := range g.Zones {
		if zn.Lo != prev {
			return fmt.Errorf("zonemap: zone %d starts at %d, want %d (gap or overlap)", i, zn.Lo, prev)
		} else if zn.Hi <= zn.Lo {
			return fmt.Errorf("zonemap: zone %d empty [%d,%d)", i, zn.Lo, zn.Hi)
		}
		prev = zn.Hi
	}
	if prev != g.tail.Lo {
		return fmt.Errorf("zonemap: zones end at %d, tailLo=%d", prev, g.tail.Lo)
	}
	k := 0 // the zone's first part
	for zi := range g.Zones {
		zn, first := g.Zone(zi), k
		if g.layout != nil && int(zn.First) != first {
			return fmt.Errorf("%w: zone %d [%d,%d) names part %d as its first, not part %d", ErrCorrupt, zi, zn.Lo, zn.Hi, zn.First, first)
		}
		for ; k < parts && part(k).Hi <= zn.Hi; k++ {
			if p := part(k); p.Hi <= p.Lo {
				return fmt.Errorf("zonemap: %s %d empty [%d,%d)", unit, k, p.Lo, p.Hi)
			}
		}
		if k == first || part(k-1).Hi != zn.Hi {
			return fmt.Errorf("zonemap: zone %d [%d,%d) ends inside part %d", zi, zn.Lo, zn.Hi, k)
		}
		for j := first; j < k; j++ {
			if err := g.checkRows(unit, j, part(j), codes, nulls); err != nil {
				return err
			}
		}
		if union := g.union(part, first, k); union.Sum != zn.Sum || union.NonNull != zn.NonNull {
			return fmt.Errorf("zonemap: zone %d [%d,%d) summary %+v nonNull=%d, its parts' %+v nonNull=%d",
				zi, zn.Lo, zn.Hi, zn.Sum, zn.NonNull, union.Sum, union.NonNull)
		}
	}
	if k != parts {
		return fmt.Errorf("zonemap: %d parts past the zones' end at row %d", parts-k, prev)
	}
	for bi := range g.blocks() {
		lo, hi := Members(bi, len(g.Zones))
		if b, union := g.Blocks.At(bi), g.Union(lo, hi).Sum; union != b {
			return fmt.Errorf("zonemap: block %d %+v, its zones' union %+v", bi, b, union)
		}
	}
	if g.tail.Hi > g.tail.Lo {
		return g.checkRows("tail", 0, Entry[S]{g.tail, g.tailSum.At(0)}, codes, nulls)
	}
	return nil
}

// checkRows re-derives window k, named unit, from its rows: its non-null
// count and its summary must be the derived ones.
func (g *Grid[S, Q]) checkRows(unit string, k int, p Entry[S], codes storage.Vec, nulls *bitvec.BitVec) error {
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

// excluded is the error for window k, named unit, whose summary differs
// from derived, the one its rows derive: it names the first row the
// summary excludes (one whose own summary a Union with it changes), or,
// when it excludes none and so admits more than its rows hold, the two
// summaries.
func (g *Grid[S, Q]) excluded(unit string, k int, p Entry[S], codes storage.Vec, nulls *bitvec.BitVec, derived S) error {
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

// BlockZones is the fan-in of the coarse probe level, and the kernel's
// batch: a probe tests each block's summary first and the member zones of
// overlapping blocks only, so it costs O(zones/64 + hits) tests.
const BlockZones = 64

// Members returns the zones [lo, hi) block bi summarises among zones zones.
func Members(bi, zones int) (lo, hi int) { return bi * BlockZones, min((bi+1)*BlockZones, zones) }

func (g *Grid[S, Q]) blocks() int { return (len(g.Zones) + BlockZones - 1) / BlockZones }

// Refold sizes the block level to the zones and re-summarises the blocks
// from the one holding zone from — the first zone an edit moved or
// appended — on.
func (g *Grid[S, Q]) Refold(from int) {
	g.Blocks.Resize(g.blocks())
	for bi := from / BlockZones; bi < g.blocks(); bi++ {
		lo, hi := Members(bi, len(g.Zones))
		g.Blocks.Set(bi, g.Union(lo, hi).Sum)
	}
}
