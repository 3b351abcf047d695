#include "textflag.h"

// The vector bodies of the dense single-interval count (see kernels.go):
// the same offset-form range test as countDense, eight 32-bit or four
// 64-bit lanes at a time, four independent accumulators deep. Each has one
// guard for an input shorter than a block and one loop edge; no jump
// depends on a code (scripts/check_kernels.sh counts them).

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
