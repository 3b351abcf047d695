package bitvec

import "slices"

// SelVec is a selection vector: an ordered list of qualifying row indices.
// It is what the filter kernels emit and the refine kernels narrow in
// place: materialized positions are cheaper to consume than a mostly-zero
// bitmap at the selectivities skipping leaves behind.
type SelVec struct {
	rows []uint32
}

// NewSelVec returns a selection vector with capacity for capHint rows.
func NewSelVec(capHint int) *SelVec {
	return &SelVec{rows: make([]uint32, 0, capHint)}
}

// Append adds a row index. Indices must be appended in ascending order for
// Rows to be a valid ordered selection; kernels guarantee this.
func (s *SelVec) Append(row uint32) { s.rows = append(s.rows, row) }

// AppendRange adds all rows in [lo, hi).
func (s *SelVec) AppendRange(lo, hi uint32) {
	for r := lo; r < hi; r++ {
		s.rows = append(s.rows, r)
	}
}

// Reserve returns n writable slots past the end of the selection, growing
// the backing array as append would when fewer are spare. Compress-store
// kernels write every candidate there and then Extend by the match count;
// the slots are not part of the selection until then.
func (s *SelVec) Reserve(n int) []uint32 {
	s.rows = slices.Grow(s.rows, n)
	return s.rows[len(s.rows) : len(s.rows)+n]
}

// Extend adds the first n slots of the preceding Reserve to the selection.
func (s *SelVec) Extend(n int) { s.rows = s.rows[:len(s.rows)+n] }

// Len returns the number of selected rows.
func (s *SelVec) Len() int { return len(s.rows) }

// Rows returns the selected row indices in ascending order. The returned
// slice aliases internal storage and is valid until the next Append/Reset.
func (s *SelVec) Rows() []uint32 { return s.rows }

// Reset empties the vector, retaining capacity.
func (s *SelVec) Reset() { s.rows = s.rows[:0] }

// Truncate shortens the selection to its first n rows. Used by in-place
// refinement: callers that filtered Rows() in place keep the surviving
// prefix.
func (s *SelVec) Truncate(n int) { s.rows = s.rows[:n] }
