// Package zonemap implements classic fixed-granularity zonemaps, the
// static baseline that adaptive zonemaps are measured against.
//
// A zonemap divides a column into fixed-size zones of consecutive rows and
// records (min, max, non-null count) per zone. A range predicate skips a
// zone whose [min, max] does not overlap the predicate's code intervals.
// Probing metadata costs one interval test per zone on every query — the
// overhead the paper shows is unrecoverable on arbitrary data
// distributions, motivating adaptivity.
package zonemap

import (
	"fmt"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/scan"
)

// Zone is the metadata of one fixed-size zone.
type Zone struct {
	Min, Max int64 // bounds over non-null rows; meaningless when NonNull==0
	NonNull  int   // number of rows carrying a value
}

// Map is a fixed-granularity zonemap over a column prefix of n rows.
type Map struct {
	zoneSize int
	n        int
	zones    []Zone
}

// Build constructs a zonemap over the first len(codes) rows of a column.
// zoneSize must be positive. nulls may be nil.
func Build(codes []int64, nulls *bitvec.BitVec, zoneSize int) *Map {
	if zoneSize <= 0 {
		panic(fmt.Sprintf("zonemap: zoneSize %d must be positive", zoneSize))
	}
	m := &Map{zoneSize: zoneSize}
	m.Extend(codes, nulls)
	return m
}

// ZoneSize returns the configured rows-per-zone.
func (m *Map) ZoneSize() int { return m.zoneSize }

// Rows returns the number of rows covered by metadata.
func (m *Map) Rows() int { return m.n }

// NumZones returns the number of zones.
func (m *Map) NumZones() int { return len(m.zones) }

// Zone returns a copy of zone i's metadata.
func (m *Map) Zone(i int) Zone { return m.zones[i] }

// MemoryBytes estimates the metadata footprint (two bounds plus a count
// per zone).
func (m *Map) MemoryBytes() int { return len(m.zones) * (8 + 8 + 8) }

// Extend grows the zonemap to cover codes, which must be the column's full
// code slice (the map remembers how many rows it has already summarized
// and only processes the suffix). The final, possibly partial, zone is
// rebuilt when new rows land in it.
func (m *Map) Extend(codes []int64, nulls *bitvec.BitVec) {
	total := len(codes)
	if total <= m.n {
		return
	}
	// Drop a trailing partial zone so it is rebuilt with the new rows.
	if rem := m.n % m.zoneSize; rem != 0 {
		m.zones = m.zones[:len(m.zones)-1]
		m.n -= rem
	}
	for lo := m.n; lo < total; lo += m.zoneSize {
		hi := lo + m.zoneSize
		if hi > total {
			hi = total
		}
		z := Zone{}
		if min, max, nonNull := scan.MinMaxRange(codes, lo, hi, nulls, 0); nonNull > 0 {
			z.Min, z.Max, z.NonNull = min, max, nonNull
		}
		m.zones = append(m.zones, z)
	}
	m.n = total
}

// Widen grows zone bounds to admit an updated value at the given row. Used
// by in-place updates: widening keeps pruning sound at the cost of looser
// bounds (re-tightening requires a rebuild).
func (m *Map) Widen(row int, code int64) {
	zi := row / m.zoneSize
	z := &m.zones[zi]
	if z.NonNull == 0 {
		z.Min, z.Max = code, code
	} else {
		if code < z.Min {
			z.Min = code
		}
		if code > z.Max {
			z.Max = code
		}
	}
	// A previously-null row gaining a value increases NonNull; callers that
	// only overwrite values may pass through NoteNonNull separately. We
	// conservatively leave NonNull unchanged here — Prune uses it only to
	// skip all-null zones and for covered short-circuits, and callers of
	// Widen must call NoteNonNull when a NULL was overwritten.
}

// NoteNonNull records that a formerly NULL row in zone row/zoneSize now
// holds a value.
func (m *Map) NoteNonNull(row int) {
	m.zones[row/m.zoneSize].NonNull++
}

// CheckInvariants re-derives every zone from the column's physical state;
// codes must be exactly the Rows() rows the map covers. A zone's non-null
// count must equal the column's (Prune's covered proof and PruneNulls read
// it in both directions) and its [Min, Max] must enclose the rows' hull —
// and equal it when exact, i.e. when no Widen has loosened the zone since
// it was built.
func (m *Map) CheckInvariants(codes []int64, nulls *bitvec.BitVec, exact bool) error {
	if want := (m.n + m.zoneSize - 1) / m.zoneSize; len(codes) != m.n || len(m.zones) != want {
		return fmt.Errorf("zonemap: %d zones over %d rows, want %d zones over the column's %d rows",
			len(m.zones), m.n, want, len(codes))
	}
	for zi, z := range m.zones {
		lo := zi * m.zoneSize
		hi := min(lo+m.zoneSize, m.n)
		mn, mx, nonNull := scan.MinMaxRange(codes, lo, hi, nulls, 0)
		if nonNull != z.NonNull {
			return fmt.Errorf("zonemap: zone %d nonNull=%d, rows [%d,%d) hold %d", zi, z.NonNull, lo, hi, nonNull)
		}
		if nonNull == 0 {
			continue
		}
		if mn < z.Min || mx > z.Max || exact && (mn != z.Min || mx != z.Max) {
			return fmt.Errorf("zonemap: zone %d bounds [%d,%d], rows [%d,%d) span [%d,%d]", zi, z.Min, z.Max, lo, hi, mn, mx)
		}
	}
	return nil
}

// Candidate is one contiguous row range the scan must visit.
type Candidate struct {
	Lo, Hi  int  // row window [Lo, Hi)
	Covered bool // every non-null row in the window is known to match
}

// PruneStats reports the work the probe did, for the experiment harness
// and the adaptive cost model.
type PruneStats struct {
	ZonesProbed  int
	ZonesSkipped int
	ZonesCovered int
	RowsSkipped  int
}

// PruneNulls emits candidates for IS NULL scans: zones with no NULL rows
// are skipped; all-NULL zones are covered (every row matches). Adjacent
// candidates with the same coverage state merge.
func (m *Map) PruneNulls(dst []Candidate) ([]Candidate, PruneStats) {
	var st PruneStats
	st.ZonesProbed = len(m.zones)
	for zi, z := range m.zones {
		lo := zi * m.zoneSize
		hi := lo + m.zoneSize
		if hi > m.n {
			hi = m.n
		}
		if z.NonNull == hi-lo {
			st.ZonesSkipped++
			st.RowsSkipped += hi - lo
			continue
		}
		covered := z.NonNull == 0
		if covered {
			st.ZonesCovered++
		}
		if k := len(dst); k > 0 && dst[k-1].Hi == lo && dst[k-1].Covered == covered {
			dst[k-1].Hi = hi
		} else {
			dst = append(dst, Candidate{Lo: lo, Hi: hi, Covered: covered})
		}
	}
	return dst, st
}

// Prune probes every zone against r and appends the row ranges that must
// be scanned to dst, merging adjacent candidates with the same coverage
// state. Zones whose metadata proves emptiness (no overlap, or all-null)
// are skipped; zones whose bounds are fully inside one predicate interval
// are emitted as Covered so the executor can short-circuit counting.
func (m *Map) Prune(r expr.Ranges, dst []Candidate) ([]Candidate, PruneStats) {
	var st PruneStats
	st.ZonesProbed = len(m.zones)
	for zi, z := range m.zones {
		lo := zi * m.zoneSize
		hi := lo + m.zoneSize
		if hi > m.n {
			hi = m.n
		}
		if z.NonNull == 0 || !r.Overlaps(z.Min, z.Max) {
			st.ZonesSkipped++
			st.RowsSkipped += hi - lo
			continue
		}
		// Covered requires a null-free zone so that "covered" means every
		// row matches — the property multi-column intersection relies on.
		covered := z.NonNull == hi-lo && r.Covers(z.Min, z.Max)
		if covered {
			st.ZonesCovered++
		}
		if k := len(dst); k > 0 && dst[k-1].Hi == lo && dst[k-1].Covered == covered {
			dst[k-1].Hi = hi
		} else {
			dst = append(dst, Candidate{Lo: lo, Hi: hi, Covered: covered})
		}
	}
	return dst, st
}
