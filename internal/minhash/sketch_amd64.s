#include "textflag.h"

// func sketchRowsAVX2(a, b, s []uint64, row []uint16, xms []uint64)
//
// sketchRowsGo with rows i..i+3 in the four lanes of a vector. Per element x
// (broadcast), each lane computes h = (a·x + b) mod 2⁶¹−1 from four 32×32
// VPMULUDQ partial products, with a = aH·2³² + aL and x = xH·2³² + xL
// (aH, xH < 2²⁹):
//
//	a·x = aH·xH·2⁶⁴ + (aH·xL + aL·xH)·2³² + aL·xL
//	2⁶⁴ ≡ 8, and with mid = aH·xL + aL·xH < 2⁶², mid·2³² ≡ mid>>29 + (mid mod 2²⁹)·2³²
//	aL·xL ≡ (aL·xL mod 2⁶¹) + aL·xL>>61
//
// The six terms plus b stay below 2⁶⁴; one Mersenne fold brings the sum to
// at most p+4 and one masked subtraction into [0, p), the canonical value
// mulAddMod returns. The running minimum is kept XORed with the sign bit so
// that the signed VPCMPGTQ orders it unsigned (Empty included), and the
// compare is strict: the first element with the least hash wins, and
// VBLENDVPD takes its index into the winner lanes.
//
// Bounds: loads read a, b, s four words at a time while fewer than len(s)
// rows are done, xms one word and one dword of it while fewer than len(xms)
// elements are done; stores write s four words and row four halfwords a
// step.
TEXT ·sketchRowsAVX2(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ s_base+48(FP), DX
	MOVQ s_len+56(FP), CX
	SHRQ $2, CX                  // row groups
	MOVQ row_base+72(FP), R8     // nil: no winners to store
	MOVQ xms_base+96(FP), R9
	MOVQ xms_len+104(FP), R12
	LEAQ (R9)(R12*8), R12        // end of xms

	MOVQ         $0x1fffffffffffffff, AX
	MOVQ         AX, X12
	VPBROADCASTQ X12, Y12        // p
	MOVQ         $0x8000000000000000, AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13        // the sign bit
	MOVQ         $1, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14        // the index step

group:
	VMOVDQU (SI), Y0             // a (aL in the low dwords)
	VPSRLQ  $32, Y0, Y1          // aH
	VMOVDQU (DI), Y2             // b
	VMOVDQU (DX), Y3
	VPXOR   Y13, Y3, Y3          // best, sign-biased
	VPXOR   Y4, Y4, Y4           // winner index
	VPXOR   Y5, Y5, Y5           // this element's index
	MOVQ    R9, R11
	CMPQ    R11, R12
	JCC     store

element:
	VPBROADCASTQ (R11), Y6       // xL in the low dwords
	VPBROADCASTD 4(R11), Y7      // xH in the low dwords
	VPMULUDQ     Y6, Y0, Y8      // aL·xL
	VPMULUDQ     Y6, Y1, Y9      // aH·xL
	VPMULUDQ     Y7, Y0, Y10     // aL·xH
	VPMULUDQ     Y7, Y1, Y11     // aH·xH
	VPADDQ       Y10, Y9, Y9     // mid
	VPSRLQ       $29, Y9, Y10    // mid>>29
	VPSLLQ       $35, Y9, Y9
	VPSRLQ       $3, Y9, Y9      // (mid mod 2²⁹)·2³²
	VPSLLQ       $3, Y11, Y11    // aH·xH·8
	VPADDQ       Y10, Y9, Y9
	VPADDQ       Y11, Y9, Y9
	VPSRLQ       $61, Y8, Y10
	VPAND        Y12, Y8, Y8
	VPADDQ       Y10, Y8, Y8
	VPADDQ       Y9, Y8, Y8
	VPADDQ       Y2, Y8, Y8      // the sum, below 2⁶⁴
	VPSRLQ       $61, Y8, Y9
	VPAND        Y12, Y8, Y8
	VPADDQ       Y9, Y8, Y8      // folded: at most p+4
	VPCMPGTQ     Y8, Y12, Y9     // p > sum
	VPANDN       Y12, Y9, Y9
	VPSUBQ       Y9, Y8, Y8      // h in [0, p)
	VPXOR        Y13, Y8, Y8
	VPCMPGTQ     Y8, Y3, Y9      // best > h
	VBLENDVPD    Y9, Y8, Y3, Y3
	VBLENDVPD    Y9, Y5, Y4, Y4
	VPADDQ       Y14, Y5, Y5
	ADDQ         $8, R11
	CMPQ         R11, R12
	JCS          element

store:
	VPXOR   Y13, Y3, Y3
	VMOVDQU Y3, (DX)
	TESTQ   R8, R8
	JEQ     next
	// Four winner indices (< 2¹⁶ when row is not nil) from the lanes'
	// low dwords to four halfwords.
	VEXTRACTI128 $1, Y4, X6
	VPACKUSDW    X6, X4, X4
	VPACKUSDW    X4, X4, X4
	MOVQ         X4, (R8)
	ADDQ         $8, R8

next:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNE  group

	VZEROUPPER
	RET
