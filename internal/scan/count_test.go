package scan

import (
	"math"
	"math/rand"
	"testing"

	"adskip/internal/storage"
)

// vectorIntervals are the intervals the two bodies of the dense count are
// compared on: points and the full domain, the ends of int64, intervals
// that straddle zero and 2^32 (what the 32-bit body clamps), the codes of
// negative floats, and inverted ones.
var vectorIntervals = [][2]int64{
	{0, 0}, {7, 7}, {math.MaxUint32, math.MaxUint32}, {-1, -1},
	{math.MinInt64, math.MaxInt64}, {0, math.MaxUint32},
	{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
	{math.MinInt64, 100}, {100, math.MaxInt64}, {math.MinInt64, -1},
	{-5, 3}, {-1 << 40, 1 << 31}, {-1, 0},
	{math.MaxUint32 + 1, math.MaxUint32 + 1}, {math.MaxUint32 + 1, 1 << 40}, {1 << 40, math.MaxInt64},
	{2, math.MaxUint32 + 1}, {math.MaxUint32, 1 << 33}, {1 << 31, 1 << 32}, {math.MaxInt32, math.MaxInt32 + 1},
	{storage.EncodeFloat64(-3.5), storage.EncodeFloat64(-5e-324)},
	{storage.EncodeFloat64(math.Inf(-1)), storage.EncodeFloat64(0)},
	{storage.EncodeFloat64(-1e300), storage.EncodeFloat64(2.5)},
	{9, 3}, {0, -1}, {math.MaxInt64, math.MinInt64}, {1 << 32, 5},
}

// checkCountBodies draws a 140-row backing array from pool (two codes in
// three; the third is random) and compares, on every window of length
// 0..130 starting at offset 0..8 of it (so the vector loop meets every
// head, tail and alignment) and on every interval of vectorIntervals, the
// portable body (countDense, called directly: it runs on every machine),
// the dispatcher the engine calls, and the naive two-sided compare. vector
// is the wrapper around the vector body, compared where the CPU can run it.
func checkCountBodies[C storage.Code](t *testing.T, rng *rand.Rand, pool []int64, vector func([]C, int64, int64) int) {
	backing := make([]C, 140)
	for i := range backing {
		if backing[i] = C(pool[rng.Intn(len(pool))]); rng.Intn(3) == 0 {
			backing[i] = C(rng.Uint64())
		}
	}
	for off := 0; off <= 8; off++ {
		for n := 0; n <= 130; n++ {
			w := backing[off : off+n]
			for _, iv := range vectorIntervals {
				lo, hi := iv[0], iv[1]
				want := 0
				for _, c := range w {
					want += b2i(lo <= int64(c)) & b2i(int64(c) <= hi)
				}
				if got := CountRanges(backing, off, off+n, oneRange(lo, hi), nil, 0); got != want {
					t.Fatalf("CountRanges off=%d n=%d [%d,%d] = %d want %d", off, n, lo, hi, got, want)
				}
				if lo > hi {
					continue // the bodies are only handed lo <= hi
				}
				base, span := offsetForm(lo, hi)
				if got := countDense(w, base, span); got != want {
					t.Fatalf("countDense off=%d n=%d [%d,%d] = %d want %d", off, n, lo, hi, got, want)
				}
				if !useVector {
					continue
				}
				if got := vector(w, lo, hi); got != want {
					t.Fatalf("vector body off=%d n=%d [%d,%d] = %d want %d", off, n, lo, hi, got, want)
				}
			}
		}
	}
}

func TestCountBodiesAgree(t *testing.T) {
	// The pools put codes on, and one beside, the bounds of vectorIntervals.
	narrow := append([]int64{3, 7, 9, 1 << 31, 1<<31 + 1}, narrowPool...)
	wide := append([]int64{-5, -1 << 40, math.MaxUint32 + 1, math.MaxUint32 + 2, 1 << 33, 1 << 40}, narrow...)
	wide = append(append(wide, codePools[1]...), codePools[2]...)
	rng := rand.New(rand.NewSource(22))
	t.Run("uint32", func(t *testing.T) { checkCountBodies(t, rng, narrow, countVector32) })
	t.Run("int64", func(t *testing.T) { checkCountBodies(t, rng, wide, countVector64) })
	if !useVector {
		t.Skip("no AVX2 on this CPU: compared the portable body and the dispatcher only")
	}
}

// Every row matching is the case in which the vector bodies' lane counters
// run highest, and the 64-bit body's misses lowest.
func TestCountVectorAllMatch(t *testing.T) {
	if !useVector {
		t.Skip("no AVX2 on this CPU")
	}
	const n = 1<<16 + 37
	narrow, wide := make([]uint32, n), make([]int64, n)
	for i := range narrow {
		narrow[i], wide[i] = math.MaxUint32-uint32(i), math.MinInt64+int64(i)
	}
	if got := countVector32(narrow, math.MinInt64, math.MaxInt64); got != n {
		t.Fatalf("countVector32 all rows = %d want %d", got, n)
	}
	if got := countVector64(wide, math.MinInt64, math.MaxInt64); got != n {
		t.Fatalf("countVector64 all rows = %d want %d", got, n)
	}
	if got := countVector64(wide, math.MinInt64+100, math.MinInt64+n-101); got != n-200 {
		t.Fatalf("countVector64 inner rows = %d want %d", got, n-200)
	}
}
