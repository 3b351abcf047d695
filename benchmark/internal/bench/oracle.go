package bench

import (
	"slices"
	"sort"
)

// The oracle computes every expected answer without touching the program
// under test, and outside any timed region.

// sortedOracle answers range counts over a read-only column by binary
// search on a sorted copy.
type sortedOracle struct {
	sorted []int64
}

func newSortedOracle(vals []int64) *sortedOracle {
	s := slices.Clone(vals)
	slices.Sort(s)
	return &sortedOracle{sorted: s}
}

// count returns how many values fall in [lo, hi].
func (o *sortedOracle) count(lo, hi int64) int {
	a, _ := slices.BinarySearch(o.sorted, lo)
	b, _ := slices.BinarySearch(o.sorted, hi+1)
	return b - a
}

// rowOracle answers "the first k rows, in row order, whose value is in
// [lo, hi]" — the expected result of ORDER BY seq LIMIT k when seq is the
// row number. It keeps row numbers sorted by value.
type rowOracle struct {
	vals []int64 // sorted values
	rows []int32 // rows[i] holds the row of vals[i]
}

func newRowOracle(vals []int64) *rowOracle {
	rows := make([]int32, len(vals))
	for i := range rows {
		rows[i] = int32(i)
	}
	sort.Slice(rows, func(i, j int) bool {
		if vals[rows[i]] != vals[rows[j]] {
			return vals[rows[i]] < vals[rows[j]]
		}
		return rows[i] < rows[j]
	})
	sorted := make([]int64, len(vals))
	for i, r := range rows {
		sorted[i] = vals[r]
	}
	return &rowOracle{vals: sorted, rows: rows}
}

func (o *rowOracle) count(lo, hi int64) int {
	a, _ := slices.BinarySearch(o.vals, lo)
	b, _ := slices.BinarySearch(o.vals, hi+1)
	return b - a
}

// firstRows returns the k smallest row numbers among rows matching
// [lo, hi], ascending.
func (o *rowOracle) firstRows(lo, hi int64, k int) []int32 {
	a, _ := slices.BinarySearch(o.vals, lo)
	b, _ := slices.BinarySearch(o.vals, hi+1)
	m := slices.Clone(o.rows[a:b])
	slices.Sort(m)
	if len(m) > k {
		m = m[:k]
	}
	return m
}

// fenwick is a binary indexed tree of counts over the value domain
// [0, n): the oracle of the ingest workload, updated with every appended
// batch.
type fenwick struct {
	tree []int32
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1)} }

// newFenwickFrom builds the tree over base values in O(n).
func newFenwickFrom(n int, base []int64) *fenwick {
	f := newFenwick(n)
	for _, v := range base {
		f.tree[v+1]++
	}
	for i := 1; i <= n; i++ {
		if j := i + i&-i; j <= n {
			f.tree[j] += f.tree[i]
		}
	}
	return f
}

func (f *fenwick) add(v int64) {
	for i := int(v) + 1; i < len(f.tree); i += i & -i {
		f.tree[i]++
	}
}

// prefix counts values < v.
func (f *fenwick) prefix(v int64) int {
	if v > int64(len(f.tree)-1) {
		v = int64(len(f.tree) - 1)
	}
	n := 0
	for i := int(v); i > 0; i -= i & -i {
		n += int(f.tree[i])
	}
	return n
}

// count returns how many values fall in [lo, hi].
func (f *fenwick) count(lo, hi int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		return 0
	}
	return f.prefix(hi+1) - f.prefix(lo)
}
