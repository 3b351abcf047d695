// Package scan implements the tight scan kernels of the column store.
//
// The paper's substrate is a main-memory column store whose scans are fast
// enough that any index must justify its metadata-read cost — that ratio is
// what makes adaptive data skipping interesting. These kernels are the
// stand-in for the paper's SIMD scans. The one every COUNT query runs, the
// dense single-interval count, and the dense min/max every zone summary is
// taken with — alone, or fused with the count in the learning scan — are
// SIMD scans where the CPU allows it: on amd64 with AVX2 (asked of CPUID
// once, at init; there is no switch) whole blocks go through the
// hand-written bodies of count_amd64.s, eight 32-bit or four 64-bit codes
// per instruction, and countDense / minMaxDense take what is left of the
// window. Everywhere else, and for every other kernel, the loops
// are portable Go whose cost must not depend on the data or on where a
// predicate sits in the domain, so they hold no data-dependent branch, and
// no bounds check except where the index is itself data (the
// compress-store cursor, the refine gather):
//
//   - the range test is one unsigned compare, uint64(c)-uint64(lo) <=
//     uint64(hi)-uint64(lo), exact over all of int64 (Float64 codes
//     included) — and for a zero-extended 32-bit code against any int64
//     interval, negative bounds included, so a predicate needs no clamping
//     to the vector's width. A two-sided c >= lo && c <= hi is a
//     short-circuit the compiler keeps as a branch on every element; the
//     single compare lowers to SETcc, and builtin min/max lower to CMOV;
//   - loops walk re-sliced fixed-size blocks, which the compiler can prove
//     in bounds;
//   - NULL-aware and multi-interval scans build a 64-row match word, mask
//     it with the null-bitmap word and popcount it (filters walk its set
//     bits, one iteration per match);
//   - the dense filter and the refine step compress-store: every row id is
//     written, the output cursor advances by the 0/1 match.
//
// scripts/check_kernels.sh checks the compiler's output for both halves,
// and the assembler's for the vector bodies, on every build; the
// bench_test.go sub-benchmarks (low-end against mid-domain predicates on
// random codes) measure them, and EXPERIMENTS.md records the result against
// a copy roofline.
//
// A column stores its codes as []uint32 or []int64 (see package storage),
// so every kernel is generic over storage.Code, one body compiled once per
// width, against inclusive int64 code intervals, optionally masking NULL
// rows. The engine and the skipping structures hold a storage.Vec and call
// the dispatchers of vec.go, which switch on the width once per kernel call.
package scan

import (
	"math"
	"math/bits"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// b2i converts a bool to 0/1. For a single comparison the compiler emits
// SETcc; callers never pass a && or || of comparisons, which would branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// offsetForm rewrites the inclusive interval [lo, hi], lo <= hi, so that c
// lies inside it iff uint64(c)-base <= span.
func offsetForm(lo, hi int64) (base, span uint64) {
	return uint64(lo), uint64(hi) - uint64(lo)
}

// countDense counts the codes inside one interval in offset form: four
// independent counters over four-element blocks.
func countDense[C storage.Code](codes []C, base, span uint64) int {
	var n0, n1, n2, n3 int
	for ; len(codes) >= 4; codes = codes[4:] {
		b := (*[4]C)(codes)
		n0 += b2i(uint64(b[0])-base <= span)
		n1 += b2i(uint64(b[1])-base <= span)
		n2 += b2i(uint64(b[2])-base <= span)
		n3 += b2i(uint64(b[3])-base <= span)
	}
	for _, c := range codes {
		n0 += b2i(uint64(c)-base <= span)
	}
	return n0 + n1 + n2 + n3
}

// vecBlock32 and vecBlock64 are the rows one iteration of every vector body
// takes (count_amd64.s): four 256-bit registers of codes.
const (
	vecBlock32 = 32
	vecBlock64 = 16
)

// countVector32 counts the codes inside [lo, hi], lo <= hi: the whole
// blocks through the vector body, the rest through countDense. The body's
// arithmetic is 32 bits wide, so the interval is first cut to what a
// 32-bit code can be; one that is empty after that matches nothing.
func countVector32(codes []uint32, lo, hi int64) int {
	lo, hi = max(lo, 0), min(hi, math.MaxUint32)
	if lo > hi {
		return 0
	}
	base, span := offsetForm(lo, hi)
	tail := codes[len(codes)&^(vecBlock32-1):]
	return countBlocks32(codes, uint32(base), uint32(span)) + countDense(tail, base, span)
}

// countVector64 is countVector32 for 64-bit codes. The body has only a
// signed compare, so both sides of the unsigned test get their sign bit
// flipped.
func countVector64(codes []int64, lo, hi int64) int {
	base, span := offsetForm(lo, hi)
	tail := codes[len(codes)&^(vecBlock64-1):]
	return countBlocks64(codes, base^1<<63, span^1<<63) + countDense(tail, base, span)
}

// matchWord returns the match bits of up to 64 codes against one interval
// in offset form: bit j is set iff codes[j] lies inside it.
func matchWord[C storage.Code](codes []C, base, span uint64) (w uint64) {
	for j := len(codes) - 1; j >= 0; j-- {
		w = w<<1 | uint64(b2i(uint64(codes[j])-base <= span))
	}
	return w
}

// maxOrIntervals is the largest interval set evaluated as an OR of one
// matchWord per interval, at a cost per row that grows with the interval
// count and not with the data. Longer sets (big IN lists) binary-search
// each code with Ranges.Contains.
const maxOrIntervals = 16

// matchBlock evaluates r over the rows from absolute row `row` up to the
// next multiple of 64 or the end of codes, k rows in all. Bit i of m stands
// for row row&^63+i and is set iff that row's code lies in some interval of
// r and the row is not NULL.
func matchBlock[C storage.Code](codes []C, row int, r expr.Ranges, nulls *bitvec.BitVec) (m uint64, k int) {
	off := row & 63
	k = min(64-off, len(codes))
	if r.Len() > maxOrIntervals {
		for j, c := range codes[:k] {
			m |= uint64(b2i(r.Contains(int64(c)))) << j
		}
	} else {
		for i, lo := range r.Lo {
			if hi := r.Hi[i]; lo <= hi {
				base, span := offsetForm(lo, hi)
				m |= matchWord(codes[:k], base, span)
			}
		}
	}
	return m << off &^ nulls.Word(row>>6), k
}

// CountRanges counts the codes in codes[lo:hi] matching any interval of r.
// nulls, when non-nil, is the column's null bitmap (indexed by absolute row
// = base+i) and NULL rows never match.
func CountRanges[C storage.Code](codes []C, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base int) int {
	w := codes[lo:hi]
	if nulls == nil && r.Len() == 1 && r.Lo[0] <= r.Hi[0] {
		if useVector {
			switch w := any(w).(type) {
			case []uint32:
				return countVector32(w, r.Lo[0], r.Hi[0])
			case []int64:
				return countVector64(w, r.Lo[0], r.Hi[0])
			}
		}
		b, span := offsetForm(r.Lo[0], r.Hi[0])
		return countDense(w, b, span)
	}
	n := 0
	for row := base + lo; len(w) > 0; {
		m, k := matchBlock(w, row, r, nulls)
		n += bits.OnesCount64(m)
		w, row = w[k:], row+k
	}
	return n
}

// selBlock is how many rows the dense filter compresses per reservation.
// The selection holds at most this much slack beyond its matches, so it
// outgrows the engine's initial 1024-row vectors about when append would.
const selBlock = 256

// compressDense writes the row id of every code and advances the output
// cursor by the 0/1 match, so matching ids end up packed at the front of
// out; len(out) >= len(codes). It returns the match count. The store keeps
// its bounds check — the compiler cannot know the cursor trails the rows
// consumed — which costs less than masking the index would.
func compressDense[C storage.Code](out []uint32, codes []C, row uint32, base, span uint64) int {
	n := 0
	for _, c := range codes {
		out[n] = row
		row++
		n += b2i(uint64(c)-base <= span)
	}
	return n
}

// FilterSel appends the absolute row indices in [lo, hi) whose codes match
// r (and are not NULL) to sel, in ascending order. Returns the match count.
func FilterSel[C storage.Code](codes []C, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base int, sel *bitvec.SelVec) int {
	before := sel.Len()
	if nulls == nil && r.Len() == 1 && r.Lo[0] <= r.Hi[0] {
		b, span := offsetForm(r.Lo[0], r.Hi[0])
		for ; lo < hi; lo += selBlock {
			w := codes[lo:min(lo+selBlock, hi)]
			sel.Extend(compressDense(sel.Reserve(len(w)), w, uint32(base+lo), b, span))
		}
		return sel.Len() - before
	}
	w := codes[lo:hi]
	for row := base + lo; len(w) > 0; {
		m, k := matchBlock(w, row, r, nulls)
		for ; m != 0; m &= m - 1 { // one iteration per match
			sel.Append(uint32(row&^63 + bits.TrailingZeros64(m)))
		}
		w, row = w[k:], row+k
	}
	return sel.Len() - before
}

// RefineSel keeps the rows of sel whose codes match r and are not NULL,
// returning how many survive. It is the gather form of the compress-store:
// each row id is written back in place and the cursor advances by the 0/1
// match, so the cost does not depend on which rows survive.
func RefineSel[C storage.Code](codes []C, r expr.Ranges, nulls *bitvec.BitVec, sel *bitvec.SelVec) int {
	rows := sel.Rows()
	n := 0
	if r.Len() == 1 && r.Lo[0] <= r.Hi[0] {
		b, span := offsetForm(r.Lo[0], r.Hi[0])
		for _, row := range rows {
			rows[n] = row
			n += b2i(uint64(codes[row])-b <= span) &^ nullBit(nulls, row)
		}
	} else {
		for _, row := range rows {
			rows[n] = row
			n += b2i(r.Contains(int64(codes[row]))) &^ nullBit(nulls, row)
		}
	}
	sel.Truncate(n)
	return n
}

// MinMaxRange returns the min and max code among the non-NULL rows of
// codes[lo:hi] and how many such rows there are; the bounds are valid iff
// nonNull > 0. Used by metadata builders and by CountWithStats. A dense
// window of at least one vector block goes through the vector body; a
// shorter one (bestCut asks for windows down to one row) is folded by
// minMaxDense directly.
func MinMaxRange[C storage.Code](codes []C, lo, hi int, nulls *bitvec.BitVec, base int) (mn, mx int64, nonNull int) {
	w := codes[lo:hi]
	if nulls != nil {
		return minMaxNulls(w, base+lo, nulls)
	}
	if useVector {
		switch w := any(w).(type) {
		case []uint32:
			if len(w) >= vecBlock32 {
				mn, mx = minMaxVector32(w)
				return mn, mx, len(w)
			}
		case []int64:
			if len(w) >= vecBlock64 {
				mn, mx = minMaxVector64(w)
				return mn, mx, len(w)
			}
		}
	}
	mn, mx = minMaxDense(w)
	return mn, mx, len(w)
}

// minMaxVector32 is minMaxDense through the vector body: the whole blocks,
// of which codes holds at least one, then the rest through minMaxDense.
func minMaxVector32(codes []uint32) (mn, mx int64) {
	bmn, bmx := minMaxBlocks32(codes)
	mn, mx = minMaxDense(codes[len(codes)&^(vecBlock32-1):])
	return min(mn, int64(bmn)), max(mx, int64(bmx))
}

// minMaxVector64 is minMaxVector32 for 64-bit codes.
func minMaxVector64(codes []int64) (mn, mx int64) {
	bmn, bmx := minMaxBlocks64(codes)
	mn, mx = minMaxDense(codes[len(codes)&^(vecBlock64-1):])
	return min(mn, bmn), max(mx, bmx)
}

// countMinMaxVector32 is countVector32 and minMaxVector32 over one read of
// codes, which holds at least one whole block. An interval that is empty
// once cut to what a 32-bit code can be matches nothing, and the bounds are
// still taken.
func countMinMaxVector32(codes []uint32, lo, hi int64) (n int, mn, mx int64) {
	lo, hi = max(lo, 0), min(hi, math.MaxUint32)
	if lo > hi {
		mn, mx = minMaxVector32(codes)
		return 0, mn, mx
	}
	base, span := offsetForm(lo, hi)
	bn, bmn, bmx := countMinMaxBlocks32(codes, uint32(base), uint32(span))
	tail := codes[len(codes)&^(vecBlock32-1):]
	mn, mx = minMaxDense(tail)
	return bn + countDense(tail, base, span), min(mn, int64(bmn)), max(mx, int64(bmx))
}

// countMinMaxVector64 is countMinMaxVector32 for 64-bit codes.
func countMinMaxVector64(codes []int64, lo, hi int64) (n int, mn, mx int64) {
	base, span := offsetForm(lo, hi)
	bn, bmn, bmx := countMinMaxBlocks64(codes, base^1<<63, span^1<<63)
	tail := codes[len(codes)&^(vecBlock64-1):]
	mn, mx = minMaxDense(tail)
	return bn + countDense(tail, base, span), min(mn, bmn), max(mx, bmx)
}

// minMaxDense folds codes into two independent min/max pairs.
func minMaxDense[C storage.Code](codes []C) (mn, mx int64) {
	mn, mx = math.MaxInt64, math.MinInt64
	mn1, mx1 := mn, mx
	for ; len(codes) >= 2; codes = codes[2:] {
		b := (*[2]C)(codes)
		c0, c1 := int64(b[0]), int64(b[1])
		mn, mx = min(mn, c0), max(mx, c0)
		mn1, mx1 = min(mn1, c1), max(mx1, c1)
	}
	for _, c := range codes {
		mn, mx = min(mn, int64(c)), max(mx, int64(c))
	}
	return min(mn, mn1), max(mx, mx1)
}
