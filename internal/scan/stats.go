package scan

import (
	"math"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// PartStat describes one sub-partition of a scanned window: its bounds over
// non-null rows and how many rows matched the predicate. Adaptive zonemaps
// consume these to decide and execute splits without re-reading data — the
// statistics are piggybacked on a scan the query had to do anyway, which is
// the "pay-as-you-go" cost model of adaptive indexing.
//
// The parts of one window tile it in row order. Each is one of its
// equal-width parts, or one side of the single cut CountWithStats made
// through such a part where its values jump.
type PartStat struct {
	Lo, Hi  int       // absolute row window [Lo, Hi)
	Hull    expr.Hull // of the non-null rows; empty when there is none
	NonNull int       // rows with a value
	Matched int       // rows matching the predicate
}

// statBlock is how many rows partStats hands to the count kernel and then
// to the min/max kernel when it cannot fuse them: small enough that the
// second reads L1.
const statBlock = 1024

// CountWithStats scans codes[lo:hi] against r, returning the total match
// count and per-sub-partition statistics. It reads memory once (see
// partStats), so the marginal cost over CountRanges is the min/max folds
// and the stat bookkeeping, not a second data read.
//
// The window is first cut into `parts` equal-width parts, parts clamped to
// [1, hi-lo]. A part whose values jump is then cut once more, at the row
// where they jump (see cutFactor), and comes back as its two sides. So the
// returned parts tile [lo, hi) in row order and number at least
// min(parts, hi-lo), each with exact bounds, non-null and match counts. Row
// indices in the returned stats are absolute (base-adjusted).
func CountWithStats[C storage.Code](codes []C, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base, parts int) (int, []PartStat) {
	n := hi - lo
	if n <= 0 {
		return 0, nil
	}
	parts = max(1, min(parts, n))
	stats := make([]PartStat, parts)
	total := 0
	for p := range stats {
		s := &stats[p]
		pLo, pHi := lo+p*n/parts, lo+(p+1)*n/parts
		s.Lo, s.Hi = base+pLo, base+pHi
		s.Matched, s.Hull.Min, s.Hull.Max, s.NonNull = partStats(codes, pLo, pHi, r, nulls, base)
		total += s.Matched
	}
	return total, cutJumps(codes, stats, r, nulls, base)
}

// partStats returns the match count of codes[lo:hi] against r, its bounds
// over non-null rows and its non-null count. A dense window of one interval
// and at least one vector block is read once by the fused vector body;
// otherwise each statBlock rows are counted and then folded into the
// bounds while still cache-resident.
func partStats[C storage.Code](codes []C, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base int) (matched int, mn, mx int64, nonNull int) {
	if useVector && nulls == nil && r.Len() == 1 && r.Lo[0] <= r.Hi[0] {
		switch w := any(codes[lo:hi]).(type) {
		case []uint32:
			if len(w) >= vecBlock32 {
				matched, mn, mx = countMinMaxVector32(w, r.Lo[0], r.Hi[0])
				return matched, mn, mx, len(w)
			}
		case []int64:
			if len(w) >= vecBlock64 {
				matched, mn, mx = countMinMaxVector64(w, r.Lo[0], r.Hi[0])
				return matched, mn, mx, len(w)
			}
		}
	}
	mn, mx = math.MaxInt64, math.MinInt64
	for b := lo; b < hi; b += statBlock {
		e := min(b+statBlock, hi)
		matched += CountRanges(codes, b, e, r, nulls, base)
		bmn, bmx, bn := MinMaxRange(codes, b, e, nulls, base)
		mn, mx, nonNull = min(mn, bmn), max(mx, bmx), nonNull+bn
	}
	return matched, mn, mx, nonNull
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

// cutJumps returns stats with every part whose values jump replaced by the
// two sides of a cut at the jump. It returns stats itself, allocating
// nothing and reading no row, unless some part is searched for a cut.
func cutJumps[C storage.Code](codes []C, stats []PartStat, r expr.Ranges, nulls *bitvec.BitVec, base int) []PartStat {
	var out []PartStat // nil until the first cut, then the parts so far
	for p, s := range stats {
		if h := s.Hull.Width(); h > 0 && neighbourWidth(stats, p) <= (h-1)/cutFactor {
			c, left, right := bestCut(codes, s.Lo-base, s.Hi-base, nulls, base)
			if max(left.Width(), right.Width()) <= h/cutFactor {
				if out == nil {
					out = append(make([]PartStat, 0, len(stats)+1), stats[:p]...)
				}
				l, rt := splitPart(codes, s, c, left, right, r, nulls, base)
				out = append(out, l, rt)
				continue
			}
		}
		if out != nil {
			out = append(out, s)
		}
	}
	if out == nil {
		return stats
	}
	return out
}

// neighbourWidth returns the narrower hull width of the parts beside
// stats[p] that hold a value, or the largest width when none does.
func neighbourWidth(stats []PartStat, p int) uint64 {
	w := uint64(math.MaxUint64)
	for _, q := range [2]int{p - 1, p + 1} {
		if q >= 0 && q < len(stats) && stats[q].NonNull > 0 {
			w = min(w, stats[q].Hull.Width())
		}
	}
	return w
}

// splitPart returns part s cut at row c (indexing codes), given the hulls
// of both sides. The left side's non-null and match counts are counted,
// the right side's are what is left of s's.
func splitPart[C storage.Code](codes []C, s PartStat, c int, left, right expr.Hull, r expr.Ranges, nulls *bitvec.BitVec, base int) (l, rt PartStat) {
	l = PartStat{Lo: s.Lo, Hi: base + c, Hull: left}
	l.NonNull = l.Hi - l.Lo - CountNulls(nulls, l.Lo, l.Hi)
	l.Matched = CountRanges(codes, s.Lo-base, c, r, nulls, base)
	rt = PartStat{Lo: base + c, Hi: s.Hi, Hull: right, NonNull: s.NonNull - l.NonNull, Matched: s.Matched - l.Matched}
	return l, rt
}

// cutFan is how many pieces bestCut divides its interval into per pass.
const cutFan = 64

// bestCut returns the row c in [lo, hi] (indexing codes) that minimises the
// wider of the hulls of codes[lo:c] and codes[c:hi], and those two hulls.
// The hull of codes[lo:hi] must have a width above zero.
//
// The left hull only grows with c and the right one only shrinks, so the
// best cut sits where they cross. Each pass cuts the interval known to hold
// it into cutFan pieces, takes each piece's hull, and keeps the piece
// where the crossing lies, with the hulls of everything either side of it.
// The first pass reads the part once, every later one a cutFan-th of the
// rows of the one before, until the pieces are single rows.
func bestCut[C storage.Code](codes []C, lo, hi int, nulls *bitvec.BitVec, base int) (c int, left, right expr.Hull) {
	var piece [cutFan]expr.Hull
	var suffix [cutFan + 1]expr.Hull
	left, right = expr.EmptyHull, expr.EmptyHull // hulls of codes[lo:a] and codes[b:hi]
	for a, b := lo, hi; ; {
		w := (b - a + cutFan - 1) / cutFan
		k := (b - a + w - 1) / w
		suffix[k] = right
		for i := k - 1; i >= 0; i-- {
			piece[i].Min, piece[i].Max, _ = MinMaxRange(codes, a+i*w, min(a+(i+1)*w, b), nulls, base)
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
