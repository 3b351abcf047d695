package scan

import (
	"math/rand"
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// The kernel micro-benchmarks scan seeded random codes, so no branch in a
// kernel can be learned by the predictor (a periodic column such as
// i*7%1000 hides a data-dependent branch completely). Each predicate is run
// at two positions of the domain and two selectivities: a branch-free
// kernel costs the same in all four, a branchy one does not. BenchmarkCopy
// is the memory roofline the others are read against. The dense count,
// filter, min/max and learning-scan kernels — and the copy — run over the
// same codes as []int64 and as []uint32 (sub-benchmarks int64 / uint32):
// ns/row per code width is what EXPERIMENTS.md "code width" records, and
// the dense count, the dense min/max and the learning scan run at each
// width through their vector and their portable bodies.

const (
	benchRows   = 2 << 20
	benchDomain = 1 << 20
)

var benchPreds = []struct {
	name     string
	rlo, rhi int64
}{
	{"low/sel1", 0, benchDomain/100 - 1},
	{"mid/sel1", benchDomain / 2, benchDomain/2 + benchDomain/100 - 1},
	{"low/sel50", 0, benchDomain/2 - 1},
	{"mid/sel50", benchDomain / 4, 3*benchDomain/4 - 1},
}

var (
	benchCodes  []int64
	benchNarrow []uint32
	benchNulls  *bitvec.BitVec
	benchSink   int
)

// benchData returns the shared 2 Mi-row column and a 5%-NULL bitmap.
func benchData() ([]int64, *bitvec.BitVec) {
	if benchCodes == nil {
		rng := rand.New(rand.NewSource(1))
		benchCodes = seq(benchRows, func(int) int64 { return rng.Int63n(benchDomain) })
		benchNulls = bitvec.New(benchRows)
		for i := 0; i < benchRows/20; i++ {
			benchNulls.Set(rng.Intn(benchRows))
		}
	}
	return benchCodes, benchNulls
}

// benchWidths runs run over the shared column at each code width.
func benchWidths(b *testing.B, run func(b *testing.B, codes storage.Vec)) {
	codes, _ := benchData()
	if benchNarrow == nil {
		benchNarrow = make([]uint32, len(codes))
		for i, c := range codes {
			benchNarrow[i] = uint32(c)
		}
	}
	b.Run("int64", func(b *testing.B) { run(b, storage.Vec{W: codes}) })
	b.Run("uint32", func(b *testing.B) { run(b, storage.Vec{N: benchNarrow}) })
}

// benchKernel times one full pass of kernel over the column, stored as
// codes of width bytes, per iteration and reports ns/row beside the MB/s
// that SetBytes derives.
func benchKernel(b *testing.B, width int, kernel func() int) {
	b.SetBytes(int64(width) * benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += kernel()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

func benchPerPred(b *testing.B, width int, kernel func(rlo, rhi int64) int) {
	for _, p := range benchPreds {
		b.Run(p.name, func(b *testing.B) {
			benchKernel(b, width, func() int { return kernel(p.rlo, p.rhi) })
		})
	}
}

func BenchmarkCopy(b *testing.B) {
	benchWidths(b, func(b *testing.B, codes storage.Vec) {
		dstW, dstN := make([]int64, len(codes.W)), make([]uint32, len(codes.N))
		benchKernel(b, codes.Width(), func() int { return copy(dstW, codes.W) + copy(dstN, codes.N) })
	})
}

// BenchmarkCountRangeDense times both bodies of the dense count on one
// machine: vector is what Count dispatches to where the CPU has AVX2
// (skipped where it has not), portable is countDense, which is also the
// vector body's tail loop.
func BenchmarkCountRangeDense(b *testing.B) {
	benchWidths(b, func(b *testing.B, codes storage.Vec) {
		b.Run("vector", func(b *testing.B) {
			if !useVector {
				b.Skip("no AVX2 on this CPU")
			}
			benchPerPred(b, codes.Width(), func(rlo, rhi int64) int {
				return Count(codes, 0, codes.Len(), oneRange(rlo, rhi), nil, 0)
			})
		})
		b.Run("portable", func(b *testing.B) {
			benchPerPred(b, codes.Width(), func(rlo, rhi int64) int {
				base, span := offsetForm(rlo, rhi)
				return countDense(codes.W, base, span) + countDense(codes.N, base, span)
			})
		})
	})
}

func BenchmarkCountRangeNulls(b *testing.B) {
	codes, nulls := benchData()
	benchPerPred(b, 8, func(rlo, rhi int64) int {
		return CountRanges(codes, 0, len(codes), oneRange(rlo, rhi), nulls, 0)
	})
}

// BenchmarkCountRanges3 is a three-interval set (an IN list or an OR of
// ranges) around the predicate's position.
func BenchmarkCountRanges3(b *testing.B) {
	codes, _ := benchData()
	benchPerPred(b, 8, func(rlo, rhi int64) int {
		w := (rhi - rlo + 1) / 5
		r := expr.Ranges{Lo: []int64{rlo, rlo + 2*w, rlo + 4*w}, Hi: []int64{rlo + w - 1, rlo + 3*w - 1, rhi}}
		return CountRanges(codes, 0, len(codes), r, nil, 0)
	})
}

func BenchmarkFilterSel(b *testing.B) {
	sel := bitvec.NewSelVec(benchRows)
	benchWidths(b, func(b *testing.B, codes storage.Vec) {
		benchPerPred(b, codes.Width(), func(rlo, rhi int64) int {
			sel.Reset()
			return Filter(codes, 0, codes.Len(), oneRange(rlo, rhi), nil, 0, sel)
		})
	})
}

func BenchmarkFilterSelNulls(b *testing.B) {
	codes, nulls := benchData()
	sel := bitvec.NewSelVec(benchRows)
	benchPerPred(b, 8, func(rlo, rhi int64) int {
		sel.Reset()
		return FilterSel(codes, 0, len(codes), oneRange(rlo, rhi), nulls, 0, sel)
	})
}

// BenchmarkMinMaxRange times the zone summary: dense/vector is what MinMax
// dispatches to where the CPU has AVX2, dense/portable is minMaxDense,
// also the vector body's tail loop, and nulls is minMaxNulls, the one body
// for a column with NULLs.
func BenchmarkMinMaxRange(b *testing.B) {
	_, nulls := benchData()
	benchWidths(b, func(b *testing.B, codes storage.Vec) {
		b.Run("dense/vector", func(b *testing.B) {
			if !useVector {
				b.Skip("no AVX2 on this CPU")
			}
			benchKernel(b, codes.Width(), func() int {
				h, _ := MinMax(codes, 0, codes.Len(), nil, 0)
				return int(h.Min + h.Max)
			})
		})
		b.Run("dense/portable", func(b *testing.B) {
			benchKernel(b, codes.Width(), func() int {
				wlo, whi := minMaxDense(codes.W)
				nlo, nhi := minMaxDense(codes.N)
				return int(wlo + whi + nlo + nhi)
			})
		})
		b.Run("nulls", func(b *testing.B) {
			benchKernel(b, codes.Width(), func() int {
				h, _ := MinMax(codes, 0, codes.Len(), nulls, 0)
				return int(h.Min + h.Max)
			})
		})
	})
}
