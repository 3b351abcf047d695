package scan

// useVector says the CPU and the operating system run the AVX2 bodies of
// count_amd64.s. It is set once, from what CPUID reports, and nothing else
// selects a body: the portable kernels are what runs where it is false.
var useVector = hasAVX2()

// hasAVX2 reports AVX2 with usable YMM state: CPUID leaf 1 must show that
// the OS uses XSAVE and that the CPU has AVX, XGETBV that the OS saves the
// XMM and YMM registers, and CPUID leaf 7 AVX2 itself.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

// countBlocks32 counts the codes c of the whole 32-row blocks of codes
// with c-base <= span; rows past the last whole block are not read.
//
//go:noescape
func countBlocks32(codes []uint32, base, span uint32) int

// countBlocks64 is countBlocks32 over 16-row blocks of 64-bit codes, the
// test being int64(c-base) <= int64(span): the caller has flipped the sign
// bit of both (see countVector64).
//
//go:noescape
func countBlocks64(codes []int64, base, span uint64) int

// minMaxBlocks32 returns the min and max code of the whole 32-row blocks
// of codes; with no whole block they are MaxUint32 and 0.
//
//go:noescape
func minMaxBlocks32(codes []uint32) (mn, mx uint32)

// minMaxBlocks64 is minMaxBlocks32 over 16-row blocks of 64-bit codes;
// with no whole block the bounds are MaxInt64 and MinInt64.
//
//go:noescape
func minMaxBlocks64(codes []int64) (mn, mx int64)

// probeBlocks32 tests the hulls [mins[i], maxs[i]] of the whole
// eight-hull blocks of mins against [lo, hi]: bit i of in is set when hull
// i holds a value inside it, of all when it holds some and all of them are
// inside. Hulls past the last whole block are not read; maxs is as long as
// mins.
//
//go:noescape
func probeBlocks32(mins, maxs []uint32, lo, hi uint32) (in, all uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register 0.
func xgetbv0() uint32
