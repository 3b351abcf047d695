// Package imprint implements column imprints (Sidirourgos & Kersten,
// SIGMOD 2013) as a second data-skipping structure under the same Skipper
// contract as zonemaps — demonstrating the abstract's framing of adaptive
// data skipping as "a framework for structures and techniques" rather
// than one index.
//
// An imprint summarizes each zone with a 64-bit mask of which value bins
// (equi-depth histogram buckets, learned from a sample) occur in the
// zone. Pruning intersects the zone's mask with the predicate's bin mask.
// Where a min/max zonemap summarizes a zone by its value hull, an imprint
// preserves multi-modality: a zone holding values {1, 10^6} has a hull
// that overlaps every predicate but an imprint with only two bits set —
// queries between the modes still skip.
package imprint

import (
	"fmt"
	"math"
	"sort"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/zonemap"
)

// bins is the number of histogram buckets (one bit each).
const bins = 64

// Map is a column imprint over a fixed zone size.
type Map struct {
	zoneSize int
	n        int
	// edges[i] is the inclusive lower bound of bin i; bin i covers
	// [edges[i], edges[i+1]) except the last, which extends to +inf.
	// Monotonically non-decreasing; equal edges make empty bins.
	edges   [bins]int64
	masks   []uint64
	nonNull []int32
}

// sampleTarget is how many values Build samples to place bin edges.
const sampleTarget = 4096

// Build constructs an imprint over the first len(codes) rows. Bin edges
// are equi-depth quantiles of a deterministic sample, so skewed domains
// get resolution where the data lives.
func Build(codes []int64, nulls *bitvec.BitVec, zoneSize int) *Map {
	if zoneSize <= 0 {
		panic(fmt.Sprintf("imprint: zoneSize %d must be positive", zoneSize))
	}
	m := &Map{zoneSize: zoneSize}
	m.edges = learnEdges(codes, nulls)
	m.Extend(codes, nulls)
	return m
}

// learnEdges picks equi-depth bin edges from a deterministic
// pseudo-random sample. Positions come from a multiplicative hash rather
// than a fixed stride: strided sampling aliases with periodic data (e.g.
// rows alternating between two value modes would be sampled from one mode
// only, collapsing the histogram).
func learnEdges(codes []int64, nulls *bitvec.BitVec) [bins]int64 {
	var edges [bins]int64
	sample := make([]int64, 0, sampleTarget)
	n := uint64(len(codes))
	draws := uint64(sampleTarget)
	if n > 0 && n < draws {
		draws = n
	}
	for k := uint64(0); k < draws; k++ {
		i := int((k * 0x9E3779B97F4A7C15) % n) // golden-ratio hash: full-period, aperiodic
		if nulls != nil && i < nulls.Len() && nulls.Get(i) {
			continue
		}
		sample = append(sample, codes[i])
	}
	if len(sample) == 0 {
		// Degenerate all-null/empty column: one giant bin.
		edges[0] = math.MinInt64
		for i := 1; i < bins; i++ {
			edges[i] = math.MaxInt64
		}
		return edges
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	edges[0] = math.MinInt64 // bin 0 catches everything below the sample
	for i := 1; i < bins; i++ {
		edges[i] = sample[(i*len(sample))/bins]
	}
	return edges
}

// binOf returns the bin index of a code.
func (m *Map) binOf(c int64) int {
	// First edge strictly greater than c, minus one.
	i := sort.Search(bins, func(i int) bool { return m.edges[i] > c })
	return i - 1
}

// ZoneSize returns the configured rows-per-zone.
func (m *Map) ZoneSize() int { return m.zoneSize }

// Rows returns the rows covered by metadata.
func (m *Map) Rows() int { return m.n }

// NumZones returns the number of zones.
func (m *Map) NumZones() int { return len(m.masks) }

// MemoryBytes estimates the metadata footprint.
func (m *Map) MemoryBytes() int { return len(m.masks)*(8+4) + bins*8 }

// Extend grows the imprint to cover codes (the column's full code slice);
// a trailing partial zone is rebuilt when new rows land in it.
func (m *Map) Extend(codes []int64, nulls *bitvec.BitVec) {
	total := len(codes)
	if total <= m.n {
		return
	}
	if rem := m.n % m.zoneSize; rem != 0 {
		m.masks = m.masks[:len(m.masks)-1]
		m.nonNull = m.nonNull[:len(m.nonNull)-1]
		m.n -= rem
	}
	for lo := m.n; lo < total; lo += m.zoneSize {
		hi := lo + m.zoneSize
		if hi > total {
			hi = total
		}
		mask, nn := m.summarize(codes, nulls, lo, hi)
		m.masks = append(m.masks, mask)
		m.nonNull = append(m.nonNull, nn)
	}
	m.n = total
}

// summarize returns the bin mask and non-null count of rows [lo, hi).
func (m *Map) summarize(codes []int64, nulls *bitvec.BitVec, lo, hi int) (mask uint64, nonNull int32) {
	for i := lo; i < hi; i++ {
		if nulls != nil && i < nulls.Len() && nulls.Get(i) {
			continue
		}
		mask |= 1 << uint(m.binOf(codes[i]))
		nonNull++
	}
	return mask, nonNull
}

// CheckInvariants re-derives every zone from the column's physical state;
// codes must be exactly the Rows() rows the imprint covers. A zone's
// non-null count must equal the column's and its mask must hold every bin
// present in its rows — and no other when exact, i.e. when no Widen has
// set a bit since the zone was built.
func (m *Map) CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error {
	want := (m.n + m.zoneSize - 1) / m.zoneSize
	if len(codes) != m.n || len(m.masks) != want || len(m.nonNull) != want {
		return fmt.Errorf("imprint: %d masks, %d counts over %d rows, want %d zones over the column's %d rows",
			len(m.masks), len(m.nonNull), m.n, want, len(codes))
	}
	for zi, have := range m.masks {
		lo := zi * m.zoneSize
		hi := min(lo+m.zoneSize, m.n)
		mask, nonNull := m.summarize(codes, nulls, lo, hi)
		if nonNull != m.nonNull[zi] {
			return fmt.Errorf("imprint: zone %d nonNull=%d, rows [%d,%d) hold %d", zi, m.nonNull[zi], lo, hi, nonNull)
		}
		if mask&^have != 0 || exact && mask != have {
			return fmt.Errorf("imprint: zone %d mask %#x, rows [%d,%d) occupy bins %#x", zi, have, lo, hi, mask)
		}
	}
	return nil
}

// Widen admits an updated value at row (sets its bin bit), keeping
// pruning sound.
func (m *Map) Widen(row int, code int64) {
	m.masks[row/m.zoneSize] |= 1 << uint(m.binOf(code))
}

// NoteNonNull records a formerly NULL row gaining a value.
func (m *Map) NoteNonNull(row int) {
	m.nonNull[row/m.zoneSize]++
}

// QueryMasks lowers a predicate's code intervals to two bin masks:
// touched (bins any interval overlaps) and covered (bins lying entirely
// inside one interval). A zone skips when its mask ∩ touched = ∅ and is
// covered when its mask ⊆ covered.
func (m *Map) QueryMasks(r expr.Ranges) (touched, coveredBins uint64) {
	for k := range r.Lo {
		lo, hi := r.Lo[k], r.Hi[k]
		bLo, bHi := m.binOf(lo), m.binOf(hi)
		for b := bLo; b <= bHi; b++ {
			touched |= 1 << uint(b)
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
				coveredBins |= 1 << uint(b)
			}
		}
	}
	return touched, coveredBins
}

// Prune probes every zone and appends candidate row windows to dst,
// merging adjacent candidates with equal coverage state (the same
// contract as zonemap.Map.Prune).
func (m *Map) Prune(r expr.Ranges, dst []zonemap.Candidate) ([]zonemap.Candidate, zonemap.PruneStats) {
	var st zonemap.PruneStats
	st.ZonesProbed = len(m.masks)
	touched, coveredBins := m.QueryMasks(r)
	for zi, mask := range m.masks {
		lo := zi * m.zoneSize
		hi := lo + m.zoneSize
		if hi > m.n {
			hi = m.n
		}
		if m.nonNull[zi] == 0 || mask&touched == 0 {
			st.ZonesSkipped++
			st.RowsSkipped += hi - lo
			continue
		}
		covered := int(m.nonNull[zi]) == hi-lo && mask&^coveredBins == 0
		if covered {
			st.ZonesCovered++
		}
		if k := len(dst); k > 0 && dst[k-1].Hi == lo && dst[k-1].Covered == covered {
			dst[k-1].Hi = hi
		} else {
			dst = append(dst, zonemap.Candidate{Lo: lo, Hi: hi, Covered: covered})
		}
	}
	return dst, st
}

// PruneNulls emits candidates for IS NULL scans, mirroring zonemap
// semantics: null-free zones skip, all-null zones are covered.
func (m *Map) PruneNulls(dst []zonemap.Candidate) ([]zonemap.Candidate, zonemap.PruneStats) {
	var st zonemap.PruneStats
	st.ZonesProbed = len(m.masks)
	for zi := range m.masks {
		lo := zi * m.zoneSize
		hi := lo + m.zoneSize
		if hi > m.n {
			hi = m.n
		}
		if int(m.nonNull[zi]) == hi-lo {
			st.ZonesSkipped++
			st.RowsSkipped += hi - lo
			continue
		}
		covered := m.nonNull[zi] == 0
		if covered {
			st.ZonesCovered++
		}
		if k := len(dst); k > 0 && dst[k-1].Hi == lo && dst[k-1].Covered == covered {
			dst[k-1].Hi = hi
		} else {
			dst = append(dst, zonemap.Candidate{Lo: lo, Hi: hi, Covered: covered})
		}
	}
	return dst, st
}
