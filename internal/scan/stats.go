package scan

import (
	"math"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// PartStat describes one sub-partition of a scanned window: its bounds over
// non-null rows and how many rows matched the predicate. Adaptive zonemaps
// consume these to decide and execute splits without re-reading data — the
// statistics are piggybacked on a scan the query had to do anyway, which is
// the "pay-as-you-go" cost model of adaptive indexing.
type PartStat struct {
	Lo, Hi   int   // absolute row window [Lo, Hi)
	Min, Max int64 // code bounds over non-null rows (valid iff NonNull > 0)
	NonNull  int   // rows with a value
	Matched  int   // rows matching the predicate
}

// statBlock is how many rows CountWithStats hands to the count kernel and
// then to the min/max kernel: small enough that the second reads L1.
const statBlock = 1024

// CountWithStats scans codes[lo:hi] against r, returning the total match
// count and per-sub-partition statistics for `parts` equal-width
// sub-windows. It reads memory once: each block is counted and then folded
// into the bounds while still cache-resident, so the marginal cost over
// CountRanges is the stat bookkeeping, not a second data read.
//
// parts is clamped to [1, hi-lo]. Row indices in the returned stats are
// absolute (base-adjusted).
func CountWithStats[C storage.Code](codes []C, lo, hi int, r expr.Ranges, nulls *bitvec.BitVec, base, parts int) (int, []PartStat) {
	n := hi - lo
	if n <= 0 {
		return 0, nil
	}
	parts = max(1, min(parts, n))
	stats := make([]PartStat, parts)
	total := 0
	for p := range stats {
		s := &stats[p]
		pLo, pHi := lo+p*n/parts, lo+(p+1)*n/parts
		s.Lo, s.Hi = base+pLo, base+pHi
		s.Min, s.Max = math.MaxInt64, math.MinInt64
		for b := pLo; b < pHi; b += statBlock {
			e := min(b+statBlock, pHi)
			s.Matched += CountRanges(codes, b, e, r, nulls, base)
			mn, mx, nonNull := MinMaxRange(codes, b, e, nulls, base)
			s.Min, s.Max, s.NonNull = min(s.Min, mn), max(s.Max, mx), s.NonNull+nonNull
		}
		total += s.Matched
	}
	return total, stats
}
