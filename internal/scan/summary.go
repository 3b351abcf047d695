package scan

import (
	"math"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// PartStat describes one part of a column's fine summary: its rows, the
// hull of their non-null values and how many rows have one. The adaptive
// zonemap keeps the parts beside its zones and plans every split from
// them, so a split reads no rows.
//
// The parts of one summary tile its rows in row order. Each is one of its
// fixed-size parts, or one side of the single cut Summarize made through
// such a part where its values jump.
type PartStat struct {
	Lo, Hi  int       // row window [Lo, Hi)
	Hull    expr.Hull // of the non-null rows; empty when there is none
	NonNull int       // rows with a value
}

// summarize is Summarize over codes of one width.
func summarize[C storage.Code](codes []C, lo, hi int, nulls *bitvec.BitVec, size int) []PartStat {
	if hi <= lo {
		return nil
	}
	size = max(size, 1)
	parts := make([]PartStat, 0, (hi-lo+size-1)/size)
	for pLo := lo; pLo < hi; pLo += size {
		s := PartStat{Lo: pLo, Hi: min(pLo+size, hi)}
		s.Hull.Min, s.Hull.Max, s.NonNull = MinMaxRange(codes, s.Lo, s.Hi, nulls, 0)
		parts = append(parts, s)
	}
	return cutJumps(codes, parts, nulls)
}

// cutFactor is how much of a part's value hull a cut must remove for the
// part to come back as two. A part is searched for a cut only when its
// hull is more than cutFactor times the narrower hull of its neighbouring
// parts, and a cut is kept only when it leaves both sides at most
// 1/cutFactor of the part's hull.
//
// The factor must exceed 2: a cut through monotone values leaves its wider
// side at least half the hull, so sorted and semi-sorted data must never
// pass. 4 leaves semi-sorted data, whose jitter widens both sides, a
// margin of 2 on top. The search test is the acceptance test with the
// neighbours standing in for the sides: a part made of the ends of two
// value bands has sides about as wide as the neighbours cut from the same
// bands, so a part whose hull is not cutFactor times theirs could not be
// cut either. Uniform data, whose parts all have one hull, is never
// searched.
const cutFactor = 4

// cutJumps returns parts with every part whose values jump replaced by the
// two sides of a cut at the jump. It returns parts itself, allocating
// nothing and reading no row, unless some part is searched for a cut.
func cutJumps[C storage.Code](codes []C, parts []PartStat, nulls *bitvec.BitVec) []PartStat {
	var out []PartStat // nil until the first cut, then the parts so far
	for p, s := range parts {
		if h := s.Hull.Width(); h > 0 && neighbourWidth(parts, p) <= (h-1)/cutFactor {
			c, left, right := bestCut(codes, s.Lo, s.Hi, nulls)
			if max(left.Width(), right.Width()) <= h/cutFactor {
				if out == nil {
					out = append(make([]PartStat, 0, len(parts)+1), parts[:p]...)
				}
				l := PartStat{Lo: s.Lo, Hi: c, Hull: left}
				l.NonNull = l.Hi - l.Lo - CountNulls(nulls, l.Lo, l.Hi)
				out = append(out, l, PartStat{Lo: c, Hi: s.Hi, Hull: right, NonNull: s.NonNull - l.NonNull})
				continue
			}
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return parts
	}
	return out
}

// neighbourWidth returns the narrower hull width of the parts beside
// parts[p] that hold a value, or the largest width when none does.
func neighbourWidth(parts []PartStat, p int) uint64 {
	w := uint64(math.MaxUint64)
	for _, q := range [2]int{p - 1, p + 1} {
		if q >= 0 && q < len(parts) && parts[q].NonNull > 0 {
			w = min(w, parts[q].Hull.Width())
		}
	}
	return w
}

// cutFan is how many pieces bestCut divides its interval into per pass.
const cutFan = 64

// bestCut returns the row c in [lo, hi] that minimises the wider of the
// hulls of codes[lo:c] and codes[c:hi], and those two hulls. The hull of
// codes[lo:hi] must have a width above zero.
//
// The left hull only grows with c and the right one only shrinks, so the
// best cut sits where they cross. Each pass cuts the interval known to hold
// it into cutFan pieces, takes each piece's hull, and keeps the piece
// where the crossing lies, with the hulls of everything either side of it.
// The first pass reads the part once, every later one a cutFan-th of the
// rows of the one before, until the pieces are single rows.
func bestCut[C storage.Code](codes []C, lo, hi int, nulls *bitvec.BitVec) (c int, left, right expr.Hull) {
	var piece [cutFan]expr.Hull
	var suffix [cutFan + 1]expr.Hull
	left, right = expr.EmptyHull, expr.EmptyHull // hulls of codes[lo:a] and codes[b:hi]
	for a, b := lo, hi; ; {
		w := (b - a + cutFan - 1) / cutFan
		k := (b - a + w - 1) / w
		suffix[k] = right
		for i := k - 1; i >= 0; i-- {
			piece[i].Min, piece[i].Max, _ = MinMaxRange(codes, a+i*w, min(a+(i+1)*w, b), nulls, 0)
			suffix[i] = piece[i].Union(suffix[i+1])
		}
		// Find the first piece boundary j where the left side is at least
		// as wide as the right: the best cut lies between boundaries j-1
		// and j. At row a the left side is the narrower (at the first pass
		// it is empty; later, a is boundary j-1 of the pass before) and at
		// row b it is not, so 1 <= j <= k.
		prev, pre, j := left, left, 0
		for j < k && pre.Width() < suffix[j].Width() {
			prev, pre = pre, pre.Union(piece[j])
			j++
		}
		if w == 1 {
			if suffix[j-1].Width() <= pre.Width() {
				return a + j - 1, prev, suffix[j-1]
			}
			return a + j, pre, suffix[j]
		}
		left, right = prev, suffix[j]
		a, b = a+(j-1)*w, min(a+j*w, b)
	}
}
