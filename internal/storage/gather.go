package storage

import (
	"fmt"
	"sort"

	"adskip/internal/dict"
)

// Codes returns the codes of rows an empty column staged, one per batch
// row at the width they were staged at, and the batch rows that are NULL,
// ascending (their code is 0). An empty column has no tail slot to put
// rows on, so they lie in one chunk; a string's code is then the index of
// the string among the batch's strings, first seen first.
func (s *StagedRows) Codes() (Vec, []int) {
	if s.base != 0 || s.onTail != 0 {
		panic(fmt.Sprintf("storage: rows staged at row %d, %d of them on a tail slot: not an empty column's", s.base, s.onTail))
	}
	return s.chunk, s.nulls
}

// StageGather is Stage for some rows of a batch an empty column of the same
// type has already staged (src, see Codes): it stages batch rows rows,
// ascending, leaves them in s and reports why the column could not take
// them — a string a sealed dictionary does not hold, named by its batch
// row; every other check ran when src was staged. It reads no cell: a
// code is copied, a NULL row re-indexed, and a string re-coded through
// this column's dictionary, once per distinct string. The width rule is
// Stage's, and s ends up as Stage of those rows in that order would leave
// it: the same codes, width, NULL rows and new strings in the same order.
func (c *Column) StageGather(s *StagedRows, src *StagedRows, rows []int32) error {
	codes, srcNulls := src.Codes()
	c.begin(s, len(rows))
	if len(srcNulls) > 0 {
		for i, r := range rows {
			for len(srcNulls) > 0 && srcNulls[0] < int(r) {
				srcNulls = srcNulls[1:]
			}
			if len(srcNulls) > 0 && srcNulls[0] == int(r) {
				s.nulls = append(s.nulls, i)
			}
		}
	}
	var local []int64 // String: each of src's strings' code here, -1 until a row references it
	if c.typ == String {
		local = make([]int64, len(src.strs))
		for k := range local {
			local[k] = -1
		}
	}
	return c.stage(s, func(dst Vec, at, first, n int) (int, error) {
		if dst.W != nil {
			return gatherInto(c, s, dst.W[at:at+n], codes, src.strs, rows[first:first+n], first, local)
		}
		return gatherInto(c, s, dst.N[at:at+n], codes, src.strs, rows[first:first+n], first, local)
	})
}

// gatherInto runs StageGather's copy at dst's width: batch rows rows of
// src — rows first.. of s — into dst, all of them or those before the
// first code dst cannot hold.
func gatherInto[T Code](c *Column, s *StagedRows, dst []T, src Vec, strs []string, rows []int32, first int, local []int64) (int, error) {
	if c.typ != String {
		if src.W != nil {
			return gatherCodes(dst, src.W, rows), nil
		}
		dst = dst[:len(rows)]
		for i, r := range rows {
			dst[i] = T(src.N[r]) // a 32-bit code fits either width
		}
		return len(rows), nil
	}
	nulls := s.nulls[sort.SearchInts(s.nulls, first):]
	for i, r := range rows {
		if len(nulls) > 0 && nulls[0] == first+i {
			nulls = nulls[1:]
			dst[i] = 0
			continue
		}
		k := src.At(int(r))
		code := local[k]
		if code < 0 {
			var ok bool
			if code, ok = c.dict.Code(strs[k]); !ok {
				if c.dict.Sealed() {
					return i, fmt.Errorf("row %d: string %q: %w", r, strs[k], dict.ErrSealed)
				}
				code = s.provisional(strs[k], c.dict.Len())
			}
			local[k] = code
		}
		if !fits[T](code) {
			return i, nil
		}
		dst[i] = T(code)
	}
	return len(rows), nil
}

// gatherCodes copies src's codes at rows into dst, all of them or those
// before the first code dst's width cannot hold, and returns how many.
func gatherCodes[T Code](dst []T, src []int64, rows []int32) int {
	dst = dst[:len(rows)]
	for i, r := range rows {
		code := src[r]
		if !fits[T](code) {
			return i
		}
		dst[i] = T(code)
	}
	return len(rows)
}
