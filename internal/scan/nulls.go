package scan

import (
	"math"
	"math/bits"

	"adskip/internal/bitvec"
	"adskip/internal/storage"
)

// Kernels that read the null bitmap. nulls may be nil (a column with no
// NULLs) or shorter than the column: rows it does not reach are not NULL.

// CountNulls returns the number of NULL rows in [lo, hi).
func CountNulls(nulls *bitvec.BitVec, lo, hi int) int {
	if nulls == nil || lo >= hi {
		return 0
	}
	if hi > nulls.Len() {
		hi = nulls.Len()
	}
	if lo >= hi {
		return 0
	}
	return nulls.CountRange(lo, hi)
}

// FilterNullSel appends the NULL row indices in [lo, hi) to sel, in
// ascending order, returning the match count.
func FilterNullSel(nulls *bitvec.BitVec, lo, hi int, sel *bitvec.SelVec) int {
	if nulls == nil {
		return 0
	}
	if hi > nulls.Len() {
		hi = nulls.Len()
	}
	n := 0
	for i := nulls.NextSet(lo); i >= 0 && i < hi; i = nulls.NextSet(i + 1) {
		sel.Append(uint32(i))
		n++
	}
	return n
}

// RefineNullSel keeps the NULL rows of sel, returning how many survive.
func RefineNullSel(nulls *bitvec.BitVec, sel *bitvec.SelVec) int {
	rows := sel.Rows()
	n := 0
	for _, row := range rows {
		rows[n] = row
		n += nullBit(nulls, row)
	}
	sel.Truncate(n)
	return n
}

// nullBit returns 1 when row is NULL and 0 otherwise.
func nullBit(nulls *bitvec.BitVec, row uint32) int {
	return int(nulls.Word(int(row>>6)) >> (row & 63) & 1)
}

// minMaxNulls is MinMaxRange over a window holding NULLs; row is the
// absolute row of codes[0]. A NULL row's code is replaced by the identity
// of each fold (MaxInt64 for min, MinInt64 for max) through its bitmap bit
// as a mask, so the loop does not branch on the bitmap.
func minMaxNulls[C storage.Code](codes []C, row int, nulls *bitvec.BitVec) (mn, mx int64, nonNull int) {
	mn, mx = math.MaxInt64, math.MinInt64
	for len(codes) > 0 {
		off := row & 63
		k := min(64-off, len(codes))
		nw := nulls.Word(row>>6) >> off & (^uint64(0) >> (64 - k))
		nonNull += k - bits.OnesCount64(nw)
		for _, code := range codes[:k] {
			c := int64(code)
			null := -int64(nw & 1) // all ones on a NULL row
			nw >>= 1
			mn = min(mn, c^(c^math.MaxInt64)&null)
			mx = max(mx, c^(c^math.MinInt64)&null)
		}
		codes, row = codes[k:], row+k
	}
	return mn, mx, nonNull
}
