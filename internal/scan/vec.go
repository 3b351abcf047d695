package scan

import (
	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// The kernels over a storage.Vec: each switches on the view's width once
// and runs the typed kernel of the same meaning, so the row loops never
// test the width.

// Count is CountRanges over a view.
func Count(v storage.Vec, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base int) int {
	if v.W != nil {
		return CountRanges(v.W, lo, hi, r, nulls, base)
	}
	return CountRanges(v.N, lo, hi, r, nulls, base)
}

// Summarize is the fine summary of rows [lo, hi) of a view: parts of size
// rows from lo (the last one shorter when size does not divide hi-lo), each
// with its hull and non-null count, and a part whose values jump cut once
// more, at the row where they jump (see cutFactor). So the parts tile
// [lo, hi) in row order, number at least ceil((hi-lo)/size), and every
// multiple of size from lo is a part boundary. It reads the rows once, and
// a part it searches for a cut about once more.
func Summarize(v storage.Vec, lo, hi int, nulls *bitvec.BitVec, size int) []PartStat {
	if v.W != nil {
		return summarize(v.W, lo, hi, nulls, size)
	}
	return summarize(v.N, lo, hi, nulls, size)
}

// Filter is FilterSel over a view.
func Filter(v storage.Vec, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base int, sel *bitvec.SelVec) int {
	if v.W != nil {
		return FilterSel(v.W, lo, hi, r, nulls, base, sel)
	}
	return FilterSel(v.N, lo, hi, r, nulls, base, sel)
}

// Refine is RefineSel over a view.
func Refine(v storage.Vec, r expr.Ranges, nulls *bitvec.BitVec, sel *bitvec.SelVec) int {
	if v.W != nil {
		return RefineSel(v.W, r, nulls, sel)
	}
	return RefineSel(v.N, r, nulls, sel)
}

// MinMax is MinMaxRange over a view, as the hull of the non-NULL rows:
// empty when there is none.
func MinMax(v storage.Vec, lo, hi int, nulls *bitvec.BitVec, base int) (h expr.Hull, nonNull int) {
	if v.W != nil {
		h.Min, h.Max, nonNull = MinMaxRange(v.W, lo, hi, nulls, base)
	} else {
		h.Min, h.Max, nonNull = MinMaxRange(v.N, lo, hi, nulls, base)
	}
	return h, nonNull
}
