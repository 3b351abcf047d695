// Package imprint implements column imprints (Sidirourgos & Kersten,
// SIGMOD 2013) as a second summary kind of package zonemap's directory —
// the abstract's "framework for structures and techniques" rather than
// one index. Zones, blocks, maintenance and probe are the static
// zonemap's; only the summary and its test differ. An imprint summarises
// a zone by a 64-bit mask of the value bins (equi-depth buckets learned
// from a sample) its rows occupy, a block by the OR of its zones' masks.
// Where a hull summarises values {1, 10^6} by a span every predicate
// overlaps, the mask has two bits set: queries between the modes skip.
package imprint

import (
	"math"
	"sort"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// bins is the number of histogram buckets (one bit each).
const bins = 64

// Bins is the imprint summary kind: a zone's summary is the mask of the
// value bins its rows occupy.
type Bins struct {
	// edges[i] is the inclusive lower bound of bin i; bin i covers
	// [edges[i], edges[i+1]) except the last, which extends to +inf.
	// Monotonically non-decreasing; equal edges make empty bins.
	edges [bins]int64
}

// Masks is a predicate lowered to bin masks: the bins any interval
// overlaps, and the bins lying entirely inside one interval.
type Masks struct{ Touched, Covered uint64 }

// sampleTarget is how many values Learn samples to place bin edges.
const sampleTarget = 4096

// Build constructs an imprint over a column view: the fixed grid under the
// Bins learned from its rows.
func Build(codes storage.Vec, nulls *bitvec.BitVec, zoneSize int) *zonemap.Grid[uint64, Masks] {
	return zonemap.NewGrid(Learn(codes, nulls), codes, nulls, zoneSize)
}

// Learn places the bin edges at equi-depth quantiles of a deterministic
// pseudo-random sample of the column, so skewed domains get resolution
// where the data lives. Positions come from a multiplicative hash rather
// than a fixed stride: strided sampling aliases with periodic data (e.g.
// rows alternating between two value modes would be sampled from one mode
// only, collapsing the histogram).
func Learn(codes storage.Vec, nulls *bitvec.BitVec) *Bins {
	m := &Bins{}
	edges := &m.edges
	sample := make([]int64, 0, sampleTarget)
	n := uint64(codes.Len())
	for k := uint64(0); k < min(sampleTarget, n); k++ {
		i := int((k * 0x9E3779B97F4A7C15) % n) // golden-ratio hash: full-period, aperiodic
		if nulls != nil && i < nulls.Len() && nulls.Get(i) {
			continue
		}
		sample = append(sample, codes.At(i))
	}
	if len(sample) == 0 {
		// Degenerate all-null/empty column: one giant bin.
		edges[0] = math.MinInt64
		for i := 1; i < bins; i++ {
			edges[i] = math.MaxInt64
		}
		return m
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	edges[0] = math.MinInt64 // bin 0 catches everything below the sample
	for i := 1; i < bins; i++ {
		edges[i] = sample[(i*len(sample))/bins]
	}
	return m
}

// binOf returns the bin index of a code.
func (m *Bins) binOf(c int64) int {
	// First edge strictly greater than c, minus one.
	i := sort.Search(bins, func(i int) bool { return m.edges[i] > c })
	return i - 1
}

// Name implements zonemap.Kind.
func (m *Bins) Name() string { return "imprint" }

// Bytes counts the bin edges.
func (m *Bins) Bytes() int { return bins * 8 }

// Summarize returns the bin mask and non-null count of rows [lo, hi).
func (m *Bins) Summarize(codes storage.Vec, nulls *bitvec.BitVec, lo, hi int) (mask uint64, nonNull int) {
	for i := lo; i < hi; i++ {
		if nulls != nil && i < nulls.Len() && nulls.Get(i) {
			continue
		}
		mask |= 1 << uint(m.binOf(codes.At(i)))
		nonNull++
	}
	return mask, nonNull
}

// Union is the mask of the bins either mask has.
func (m *Bins) Union(a, b uint64) uint64 { return a | b }

// Test skips a zone when its mask ∩ touched = ∅ and proves it covered
// when its mask ⊆ covered.
func (m *Bins) Test(q *Masks, mask uint64) expr.Match {
	switch {
	case mask&q.Touched == 0:
		return expr.MatchNone
	case mask&^q.Covered == 0:
		return expr.MatchAll
	}
	return expr.MatchSome
}

// Lower turns a predicate's code intervals into its two bin masks.
func (m *Bins) Lower(r expr.Ranges) (q Masks) {
	for k := range r.Lo {
		lo, hi := r.Lo[k], r.Hi[k]
		bLo, bHi := m.binOf(lo), m.binOf(hi)
		for b := bLo; b <= bHi; b++ {
			q.Touched |= 1 << uint(b)
			// Bin b spans [edges[b], next); it is covered when fully
			// inside [lo, hi].
			binLo := m.edges[b]
			binHi := int64(math.MaxInt64)
			if b+1 < bins {
				if m.edges[b+1] == math.MinInt64 {
					continue
				}
				binHi = m.edges[b+1] - 1
			}
			if lo <= binLo && binHi <= hi {
				q.Covered |= 1 << uint(b)
			}
		}
	}
	return q
}
