package engine

import (
	"slices"

	"adskip/internal/bitvec"
	"adskip/internal/dict"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// ORDER BY is a bounded selection, not a sort of the match set. The
// ordering is defined once, in topL.before: non-NULL rows by (key, row id)
// — the key is the order column's code mapped so that unsigned order is
// the requested direction, the row id breaks ties the way a stable sort
// over ascending ids would — followed by the NULL rows in row order (NULLs
// last in both directions). Candidate windows stream through topL, which
// retains at most LIMIT rows (every match when there is no limit);
// aggregates fold as rows pass. Only retained rows are ever materialized,
// each with its order value, which is what Partial.Merge orders by.

// topEntry is one retained non-NULL row.
type topEntry struct {
	key uint64
	row uint32
}

// topL keeps the first limit rows of the ordering out of the rows offered
// to it. Rows must be offered in ascending row order.
type topL struct {
	limit int // 0 = keep every row
	codes storage.Vec
	nulls *bitvec.BitVec // nil when the order column has no NULLs
	flip  uint64         // key = uint64(code) ^ flip
	// dict is set for an unsealed string dictionary, whose codes are in
	// insertion order: keys are then raw codes and compare by value.
	dict *dict.Dict
	desc bool

	// ents holds the retained non-NULL rows: unordered while fewer than
	// limit, a heap with the last-ordered entry at the root once full.
	ents []topEntry
	// threshold: the heap is full and keys compare as integers (see rejects).
	threshold bool
	// nullRows is the ordering's tail: the first NULL rows in row order,
	// as many as still fit under limit beside ents. A non-NULL row that
	// arrives later pushes the last of them past the cut; nothing brings
	// one back.
	nullRows []uint32
}

func newTopL(col *storage.Column, desc bool, limit int) *topL {
	t := &topL{limit: limit, codes: col.Vec(), nulls: col.Nulls(), desc: desc}
	switch {
	case col.Type() == storage.String && !col.DictSorted():
		t.dict = col.Dict()
	case desc:
		t.flip = ^uint64(1 << 63) // sign flip, then complement: larger codes first
	default:
		t.flip = 1 << 63 // int64 order as unsigned order
	}
	if limit > 0 {
		t.ents = make([]topEntry, 0, min(limit, 1024))
	}
	return t
}

// before is the ORDER BY ordering over non-NULL rows: the one comparator
// behind the full-heap threshold, the heap and the final sort.
func (t *topL) before(a, b topEntry) bool {
	if a.key == b.key {
		return a.row < b.row
	}
	if t.dict != nil {
		return (t.dict.Value(int64(a.key)) < t.dict.Value(int64(b.key))) != t.desc
	}
	return a.key < b.key
}

// offer feeds one window of matching rows.
func (t *topL) offer(rows []uint32) {
	for _, r := range rows {
		if !t.rejects(r) {
			t.add(r)
		}
	}
}

// rejects is the one compare most rows end at once the heap is full: rows
// arrive in ascending order, so a row whose key only ties the root's
// already loses on row id. (A full heap also means no NULL row can make the
// cut, so whatever code a NULL row carries, add drops it.)
func (t *topL) rejects(r uint32) bool {
	return t.threshold && uint64(t.codes.At(int(r)))^t.flip >= t.ents[0].key
}

// outside reports whether no row of [lo, hi) can make a full heap's cut:
// the window's best key — its least code ascending, its greatest
// descending — is not before the root. Rows arrive in ascending order, so
// a tie already loses, and a window of NULL rows only holds nothing a full
// heap keeps. It reads the window's codes once, with the min/max kernel,
// and is only asked while the threshold holds.
func (t *topL) outside(lo, hi int) bool {
	h, nonNull := scan.MinMax(t.codes, lo, hi, t.nulls, 0)
	if nonNull == 0 {
		return true
	}
	best := h.Min
	if t.desc {
		best = h.Max
	}
	return uint64(best)^t.flip >= t.ents[0].key
}

// add offers one row that the threshold did not reject.
func (t *topL) add(r uint32) {
	if t.nulls != nil && t.nulls.Get(int(r)) {
		if t.limit == 0 || t.retained() < t.limit {
			t.nullRows = append(t.nullRows, r)
		}
		return
	}
	e := topEntry{key: uint64(t.codes.At(int(r))) ^ t.flip, row: r}
	if t.limit > 0 && len(t.ents) == t.limit {
		if t.before(e, t.ents[0]) {
			t.ents[0] = e
			t.siftDown(0)
		}
		return
	}
	t.ents = append(t.ents, e)
	if t.limit > 0 && t.retained() > t.limit {
		t.nullRows = t.nullRows[:len(t.nullRows)-1] // pushed past the cut
	}
	if len(t.ents) == t.limit {
		for i := len(t.ents)/2 - 1; i >= 0; i-- {
			t.siftDown(i)
		}
		t.threshold = t.dict == nil
	}
}

// siftDown restores the heap below i (children ordered before parents).
func (t *topL) siftDown(i int) {
	h := t.ents
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.before(h[c], h[c+1]) {
			c++
		}
		if !t.before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// retained is the number of rows currently held, never more than limit:
// what the result-row budget is charged for.
func (t *topL) retained() int { return len(t.ents) + len(t.nullRows) }

// rows returns the retained row ids in result order.
func (t *topL) rows() []uint32 {
	slices.SortFunc(t.ents, func(a, b topEntry) int {
		if t.before(a, b) {
			return -1
		}
		return 1
	})
	out := make([]uint32, 0, t.retained())
	for _, e := range t.ents {
		out = append(out, e.row)
	}
	return append(out, t.nullRows...)
}
