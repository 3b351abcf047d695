package scan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// bodyPool32 and bodyPool64 are the codes the min/max bodies are compared
// on at each width: the ends of the width, one beside each, and the two
// codes either side of its signed half, where a signed lane compare or a
// lane's identity would give a wrong bound.
var (
	bodyPool32 = []int64{0, 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32 - 1, math.MaxUint32}
	bodyPool64 = append([]int64{math.MinInt64, math.MinInt64 + 1, -2, -1, math.MaxInt64 - 1, math.MaxInt64}, bodyPool32...)
)

// maxBodyWindow is the longest window the bodies are compared on: three
// 32-row blocks and the longest tail. Windows start at offsets 0..31.
const maxBodyWindow = 3*vecBlock32 + 31

// bodyColumns returns the columns the min/max bodies are compared on, each
// long enough for every window: pool draws (a random code one time in
// three), runs counting up through each pool code (so through every sign
// change and wrap of the width), one all-equal column per pool code, and
// "tail", codes in [1000, 2000), whose windows checkBodyWindows also tries
// with an extreme of the pool in the last row.
func bodyColumns[C storage.Code](rng *rand.Rand, pool []int64) map[string][]C {
	const n = 31 + maxBodyWindow
	cols := map[string][]C{"random": make([]C, n), "runs": make([]C, n), "tail": make([]C, n)}
	for i := range n {
		cols["random"][i] = C(pool[rng.Intn(len(pool))])
		if rng.Intn(3) == 0 {
			cols["random"][i] = C(rng.Uint64())
		}
		cols["runs"][i] = C(pool[i/13%len(pool)] + int64(i%13-6))
		cols["tail"][i] = C(1000 + rng.Intn(1000))
	}
	for _, p := range pool {
		all := make([]C, n)
		for i := range all {
			all[i] = C(p)
		}
		cols[fmt.Sprintf("all %d", p)] = all
	}
	return cols
}

// checkBodyWindows calls check on every window of length 0..maxBodyWindow
// at offsets 0..31 of every column, and on the "tail" column's windows
// again with the pool's lowest and highest code in the last row, where
// only the tail loop sees it.
func checkBodyWindows[C storage.Code](t *testing.T, cols map[string][]C, pool []int64, check func(w []C) string) {
	t.Helper()
	lowest, highest := C(slices.Min(pool)), C(slices.Max(pool))
	for name, col := range cols {
		for off := 0; off < 32; off++ {
			for n := 0; n <= maxBodyWindow; n++ {
				w := col[off : off+n]
				if msg := check(w); msg != "" {
					t.Fatalf("%s column, off=%d n=%d: %s", name, off, n, msg)
				}
				if name != "tail" || n == 0 {
					continue
				}
				last := w[n-1]
				for _, x := range []C{lowest, highest} {
					w[n-1] = x
					if msg := check(w); msg != "" {
						t.Fatalf("tail column, off=%d n=%d, %d in the last row: %s", off, n, x, msg)
					}
				}
				w[n-1] = last
			}
		}
	}
}

// checkMinMaxBodies compares the dispatcher and, where the CPU runs it,
// the vector wrapper with minMaxDense on every window of bodyColumns.
func checkMinMaxBodies[C storage.Code](t *testing.T, pool []int64, block int, vector func([]C) (int64, int64)) {
	checkBodyWindows(t, bodyColumns[C](rand.New(rand.NewSource(32)), pool), pool, func(w []C) string {
		mn, mx := minMaxDense(w)
		if gmn, gmx, nonNull := MinMaxRange(w, 0, len(w), nil, 0); nonNull != len(w) || len(w) > 0 && (gmn != mn || gmx != mx) {
			return fmt.Sprintf("MinMaxRange = %d,%d,%d want %d,%d,%d", gmn, gmx, nonNull, mn, mx, len(w))
		}
		if useVector && len(w) >= block {
			if vmn, vmx := vector(w); vmn != mn || vmx != mx {
				return fmt.Sprintf("vector body = %d,%d want %d,%d", vmn, vmx, mn, mx)
			}
		}
		return ""
	})
}

func TestMinMaxBodiesAgree(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkMinMaxBodies(t, bodyPool32, vecBlock32, minMaxVector32) })
	t.Run("int64", func(t *testing.T) { checkMinMaxBodies(t, bodyPool64, vecBlock64, minMaxVector64) })
	if !useVector {
		t.Skip("no AVX2 on this CPU: compared the dispatcher with minMaxDense only")
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

// The hull kernel's vector body agrees with its portable body: for every
// batch length up to 64 at the 4-byte width, over hulls drawn near 0,
// across 2^31 (where a signed compare would order them wrongly) and near
// 2^32, empty ones included, against intervals with the same edges.
func TestProbeHullsBodiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bases := []uint32{0, 1<<31 - 16, math.MaxUint32 - 40}
	for trial := 0; trial < 400; trial++ {
		base := bases[trial%len(bases)]
		n := trial % 65
		mins, maxs := make([]uint32, n), make([]uint32, n)
		for i := range mins {
			mins[i] = base + uint32(rng.Intn(30))
			maxs[i] = mins[i] + uint32(rng.Intn(10))
			if rng.Intn(5) == 0 {
				mins[i], maxs[i] = 1, 0 // a hull of no value
			}
		}
		lo := base + uint32(rng.Intn(35))
		hi := lo + uint32(rng.Intn(int(min(20, math.MaxUint32-uint64(lo))+1)))
		none, all := ProbeHulls(mins, maxs, lo, hi)
		wantNone, wantAll := probeDense(mins, maxs, lo, hi)
		if none != wantNone || all != wantAll {
			t.Fatalf("%d hulls from %d, [%d,%d]: none %b all %b, portable body %b %b", n, base, lo, hi, none, all, wantNone, wantAll)
		}
	}
	if !useVector {
		t.Skip("no AVX2 on this CPU: compared the portable body with itself")
	}
}
