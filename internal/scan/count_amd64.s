#include "textflag.h"

// The vector bodies of the dense single-interval count and of the dense
// min/max (see kernels.go): the same offset-form range test as countDense
// and the same folds as minMaxDense, eight 32-bit or four 64-bit lanes at
// a time, four independent accumulators deep. Each has one guard for an
// input shorter than a block and one loop edge; no jump depends on a code
// (scripts/check_kernels.sh counts them).

// func countBlocks32(codes []uint32, base, span uint32) int
//
// A code c matches iff c-base <= span (unsigned, mod 2^32), which AVX2
// spells min(c-base, span) == c-base. The compare leaves -1 in a matching
// lane, so subtracting it adds the match. c-base is computed as c+(-base),
// which lets the load fold into the VPADDD.
//
// Y8..Y11 hold 32 lanes of uint32 counts and a lane gains at most one per
// 32-row iteration, so they cannot wrap in fewer than 2^32 iterations =
// 2^37 rows (a 512 GiB slice); the sums after the loop are 64 bits wide.
TEXT ·countBlocks32(SB), NOSPLIT, $0-40
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	MOVL base+24(FP), AX
	MOVL span+28(FP), BX
	NEGL AX
	VMOVD AX, X14
	VMOVD BX, X15
	VPBROADCASTD X14, Y14 // -base
	VPBROADCASTD X15, Y15 // span
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	SHRQ $5, CX // 32 rows per iteration
	JZ   sum32

loop32:
	VPADDD 0(SI), Y14, Y0
	VPADDD 32(SI), Y14, Y1
	VPADDD 64(SI), Y14, Y2
	VPADDD 96(SI), Y14, Y3
	VPMINUD Y15, Y0, Y4
	VPMINUD Y15, Y1, Y5
	VPMINUD Y15, Y2, Y6
	VPMINUD Y15, Y3, Y7
	VPCMPEQD Y4, Y0, Y0
	VPCMPEQD Y5, Y1, Y1
	VPCMPEQD Y6, Y2, Y2
	VPCMPEQD Y7, Y3, Y3
	VPSUBD Y0, Y8, Y8
	VPSUBD Y1, Y9, Y9
	VPSUBD Y2, Y10, Y10
	VPSUBD Y3, Y11, Y11
	ADDQ $128, SI
	DECQ CX
	JNZ  loop32

sum32:
	// Widen each accumulator to four 64-bit sums (even lanes + odd lanes).
	VPCMPEQD Y13, Y13, Y13
	VPSRLQ $32, Y13, Y13 // low dword of each qword
	VPSRLQ $32, Y8, Y0
	VPSRLQ $32, Y9, Y1
	VPSRLQ $32, Y10, Y2
	VPSRLQ $32, Y11, Y3
	VPAND Y13, Y8, Y8
	VPAND Y13, Y9, Y9
	VPAND Y13, Y10, Y10
	VPAND Y13, Y11, Y11
	VPADDQ Y0, Y8, Y8
	VPADDQ Y1, Y9, Y9
	VPADDQ Y2, Y10, Y10
	VPADDQ Y3, Y11, Y11
	VPADDQ Y9, Y8, Y8
	VPADDQ Y11, Y10, Y10
	VPADDQ Y10, Y8, Y8
	VEXTRACTI128 $1, Y8, X0
	VPADDQ X0, X8, X8
	VPSRLDQ $8, X8, X0
	VPADDQ X0, X8, X8
	VMOVQ X8, AX
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func countBlocks64(codes []int64, base, span uint64) int
//
// AVX2 compares 64-bit lanes signed only, so both sides of c-base <= span
// are biased by 2^63: c-(base^2^63) > span^2^63 (signed) iff the code
// misses. The body counts misses (the compare leaves -1 in a missing lane)
// and returns rows - misses. base and span arrive already biased. The
// 64-bit lanes cannot wrap.
TEXT ·countBlocks64(SB), NOSPLIT, $0-48
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	MOVQ base+24(FP), AX
	MOVQ span+32(FP), BX
	NEGQ AX
	VMOVQ AX, X14
	VMOVQ BX, X15
	VPBROADCASTQ X14, Y14 // -(base^2^63)
	VPBROADCASTQ X15, Y15 // span^2^63
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	MOVQ CX, DX
	ANDQ $~15, DX // rows counted
	SHRQ $4, CX   // 16 rows per iteration
	JZ   sum64

loop64:
	VPADDQ 0(SI), Y14, Y0
	VPADDQ 32(SI), Y14, Y1
	VPADDQ 64(SI), Y14, Y2
	VPADDQ 96(SI), Y14, Y3
	VPCMPGTQ Y15, Y0, Y0
	VPCMPGTQ Y15, Y1, Y1
	VPCMPGTQ Y15, Y2, Y2
	VPCMPGTQ Y15, Y3, Y3
	VPSUBQ Y0, Y8, Y8
	VPSUBQ Y1, Y9, Y9
	VPSUBQ Y2, Y10, Y10
	VPSUBQ Y3, Y11, Y11
	ADDQ $128, SI
	DECQ CX
	JNZ  loop64

sum64:
	VPADDQ Y9, Y8, Y8
	VPADDQ Y11, Y10, Y10
	VPADDQ Y10, Y8, Y8
	VEXTRACTI128 $1, Y8, X0
	VPADDQ X0, X8, X8
	VPSRLDQ $8, X8, X0
	VPADDQ X0, X8, X8
	VMOVQ X8, AX
	VZEROUPPER
	SUBQ AX, DX
	MOVQ DX, ret+40(FP)
	RET

// func minMaxBlocks32(codes []uint32) (mn, mx uint32)
//
// Unsigned min and max lanes, four accumulators of each. An input shorter
// than a block leaves the identities, MaxUint32 and 0.
TEXT ·minMaxBlocks32(SB), NOSPLIT, $0-32
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	VPCMPEQD Y8, Y8, Y8 // mins: MaxUint32
	VPCMPEQD Y9, Y9, Y9
	VPCMPEQD Y10, Y10, Y10
	VPCMPEQD Y11, Y11, Y11
	VPXOR Y12, Y12, Y12 // maxes: 0
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	SHRQ $5, CX // 32 rows per iteration
	JZ   fold32

mmloop32:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPMINUD Y0, Y8, Y8
	VPMINUD Y1, Y9, Y9
	VPMINUD Y2, Y10, Y10
	VPMINUD Y3, Y11, Y11
	VPMAXUD Y0, Y12, Y12
	VPMAXUD Y1, Y13, Y13
	VPMAXUD Y2, Y14, Y14
	VPMAXUD Y3, Y15, Y15
	ADDQ $128, SI
	DECQ CX
	JNZ  mmloop32

fold32:
	VPMINUD Y9, Y8, Y8
	VPMINUD Y11, Y10, Y10
	VPMINUD Y10, Y8, Y8
	VPMAXUD Y13, Y12, Y12
	VPMAXUD Y15, Y14, Y14
	VPMAXUD Y14, Y12, Y12

	// Fold eight lanes to one: the high half onto the low, then the high
	// qword, then the odd dword.
	VEXTRACTI128 $1, Y8, X0
	VEXTRACTI128 $1, Y12, X1
	VPMINUD X0, X8, X8
	VPMAXUD X1, X12, X12
	VPSHUFD $0x4e, X8, X0
	VPSHUFD $0x4e, X12, X1
	VPMINUD X0, X8, X8
	VPMAXUD X1, X12, X12
	VPSHUFD $0xb1, X8, X0
	VPSHUFD $0xb1, X12, X1
	VPMINUD X0, X8, X8
	VPMAXUD X1, X12, X12
	VMOVD X8, AX
	VMOVD X12, BX
	VZEROUPPER
	MOVL AX, mn+24(FP)
	MOVL BX, mx+28(FP)
	RET

// func minMaxBlocks64(codes []int64) (mn, mx int64)
//
// AVX2 has no 64-bit min or max, so each is a signed compare and a blend
// (VPBLENDVB takes a lane's bytes from the code where the compare left -1).
// Four accumulators of each. An input shorter than a block leaves the
// identities, MaxInt64 and MinInt64.
TEXT ·minMaxBlocks64(SB), NOSPLIT, $0-40
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	MOVQ $0x7fffffffffffffff, AX
	VMOVQ AX, X8
	VPBROADCASTQ X8, Y8 // mins: MaxInt64
	VMOVDQU Y8, Y9
	VMOVDQU Y8, Y10
	VMOVDQU Y8, Y11
	VPCMPEQQ Y12, Y12, Y12
	VPXOR Y8, Y12, Y12 // maxes: MinInt64
	VMOVDQU Y12, Y13
	VMOVDQU Y12, Y14
	VMOVDQU Y12, Y15
	SHRQ $4, CX // 16 rows per iteration
	JZ   fold64

mmloop64:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPCMPGTQ Y0, Y8, Y4 // min > c
	VPCMPGTQ Y1, Y9, Y5
	VPCMPGTQ Y2, Y10, Y6
	VPCMPGTQ Y3, Y11, Y7
	VPBLENDVB Y4, Y0, Y8, Y8
	VPBLENDVB Y5, Y1, Y9, Y9
	VPBLENDVB Y6, Y2, Y10, Y10
	VPBLENDVB Y7, Y3, Y11, Y11
	VPCMPGTQ Y12, Y0, Y4 // c > max
	VPCMPGTQ Y13, Y1, Y5
	VPCMPGTQ Y14, Y2, Y6
	VPCMPGTQ Y15, Y3, Y7
	VPBLENDVB Y4, Y0, Y12, Y12
	VPBLENDVB Y5, Y1, Y13, Y13
	VPBLENDVB Y6, Y2, Y14, Y14
	VPBLENDVB Y7, Y3, Y15, Y15
	ADDQ $128, SI
	DECQ CX
	JNZ  mmloop64

fold64:
	VPCMPGTQ Y9, Y8, Y4
	VPCMPGTQ Y11, Y10, Y5
	VPBLENDVB Y4, Y9, Y8, Y8
	VPBLENDVB Y5, Y11, Y10, Y10
	VPCMPGTQ Y10, Y8, Y4
	VPBLENDVB Y4, Y10, Y8, Y8
	VPCMPGTQ Y12, Y13, Y4
	VPCMPGTQ Y14, Y15, Y5
	VPBLENDVB Y4, Y13, Y12, Y12
	VPBLENDVB Y5, Y15, Y14, Y14
	VPCMPGTQ Y12, Y14, Y4
	VPBLENDVB Y4, Y14, Y12, Y12

	// Fold four lanes to one: the high half onto the low, then the high
	// qword.
	VEXTRACTI128 $1, Y8, X0
	VEXTRACTI128 $1, Y12, X1
	VPCMPGTQ X0, X8, X4
	VPCMPGTQ X12, X1, X5
	VPBLENDVB X4, X0, X8, X8
	VPBLENDVB X5, X1, X12, X12
	VPSHUFD $0x4e, X8, X0
	VPSHUFD $0x4e, X12, X1
	VPCMPGTQ X0, X8, X4
	VPCMPGTQ X12, X1, X5
	VPBLENDVB X4, X0, X8, X8
	VPBLENDVB X5, X1, X12, X12
	VMOVQ X8, AX
	VMOVQ X12, BX
	VZEROUPPER
	MOVQ AX, mn+24(FP)
	MOVQ BX, mx+32(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
