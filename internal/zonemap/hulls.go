package zonemap

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// HullKind summarises a zone by its expr.Hull, stored at the column's code
// width (Hulls), and tests it with the predicate's Clause: a zone skips
// when no interval overlaps its hull and is covered when one interval
// encloses it. It is the static zonemap's kind (PolicyStatic) and the
// adaptive zonemap's.
type HullKind struct{}

func (HullKind) Name() string { return "static" }
func (HullKind) Bytes() int   { return 0 }

func (HullKind) Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (expr.Hull, int) {
	return scan.MinMax(codes, lo, hi, nulls, 0)
}

func (HullKind) Union(a, b expr.Hull) expr.Hull  { return a.Union(b) }
func (HullKind) Level() Level[expr.Hull, Clause] { return &Hulls[uint32]{} }

// Lower cuts the predicate's hull to 32 bits, once per query.
func (HullKind) Lower(r expr.Ranges) Clause {
	q := Clause{r: r, lo: 1}
	if n := len(r.Lo); n > 0 && r.Hi[n-1] >= 0 && r.Lo[0] <= math.MaxUint32 {
		q.lo, q.hi = uint32(max(r.Lo[0], 0)), uint32(min(r.Hi[n-1], math.MaxUint32))
	}
	return q
}

// Build constructs the static zonemap over a column view: the Grid under
// the min/max hull.
func Build(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *Grid[expr.Hull, Clause] {
	return NewGrid[expr.Hull, Clause](HullKind{}, codes, nulls, zoneSize)
}

// Clause is a predicate as the hull kernel tests it: its intervals, whose
// hull bounds it at the 8-byte code width, and that hull cut to the 4-byte
// width, lo > hi when no 32-bit code lies inside it. It is passed by value
// and fits a cache line's half.
type Clause struct {
	r      expr.Ranges
	lo, hi uint32
}

// Hulls is the min/max kind's Level: each entry's bounds in two parallel
// arrays at the column's code width C, uint32 until a code does not fit 32
// bits. The hull of no value is stored as [1, 0].
type Hulls[C storage.Code] struct{ Min, Max []C }

func (l *Hulls[C]) At(i int) expr.Hull {
	if l.Min[i] <= l.Max[i] {
		return expr.Hull{Min: int64(l.Min[i]), Max: int64(l.Max[i])}
	}
	return expr.EmptyHull
}

func (l *Hulls[C]) Set(i int, h expr.Hull) {
	l.Min[i], l.Max[i] = C(h.Min), C(h.Max)
	if h.Empty() {
		l.Min[i], l.Max[i] = 1, 0
	}
}

func (l *Hulls[C]) Copy(dst, lo, hi int) {
	copy(l.Min[dst:], l.Min[lo:hi])
	copy(l.Max[dst:], l.Max[lo:hi])
}

func (l *Hulls[C]) Resize(n int) {
	if n > cap(l.Min) {
		l.Min, l.Max = slices.Grow(l.Min, n-len(l.Min)), slices.Grow(l.Max, n-len(l.Max))
	}
	l.Min, l.Max = l.Min[:n], l.Max[:n]
}

func (l *Hulls[C]) Bytes() int { return 2 * cap(l.Min) * int(unsafe.Sizeof(C(0))) }

// Widen rewrites 4-byte bounds as 8-byte ones, as storage.Column.escalate
// rewrites the codes.
func (l *Hulls[C]) Widen() Level[expr.Hull, Clause] {
	if unsafe.Sizeof(C(0)) == 8 {
		return l
	}
	w := &Hulls[int64]{make([]int64, len(l.Min)), make([]int64, len(l.Max))}
	for i := range l.Min {
		w.Set(i, l.At(i))
	}
	return w
}

// Probe runs the kernel, scan.ProbeHulls, at the level's width. It settles
// a predicate of one interval; of several, it skips the hulls outside the
// predicate's hull, and the rest are tested against the intervals.
func (l *Hulls[C]) Probe(q Clause, lo, hi int) (none, all uint64) {
	wLo, wHi, n := C(q.lo), C(q.hi), len(q.r.Lo)
	if unsafe.Sizeof(C(0)) == 8 && n > 0 {
		wLo, wHi = C(q.r.Lo[0]), C(q.r.Hi[n-1])
	}
	if wLo > wHi || n == 0 {
		return 1<<(hi-lo) - 1, 0
	}
	if none, all = scan.ProbeHulls(l.Min[lo:hi], l.Max[lo:hi], wLo, wHi); n == 1 {
		return none, all
	}
	all = 0
	c := q.r.Clause()
	for m := ^none & (1<<(hi-lo) - 1); m != 0; m &= m - 1 {
		switch i := bits.TrailingZeros64(m); c.Test(l.At(lo + i)) {
		case expr.MatchNone:
			none |= 1 << i
		case expr.MatchAll:
			all |= 1 << i
		}
	}
	return none, all
}

// Test is the clause's test of one hull.
func (q *Clause) Test(h expr.Hull) expr.Match {
	c := q.r.Clause()
	return c.Test(h)
}
