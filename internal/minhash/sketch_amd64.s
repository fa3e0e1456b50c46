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

// func sketchRowsAVX512(a, b, s []uint64, row []uint16, xms []uint64)
//
// sketchRowsAVX2 sixteen rows a step: rows i..i+7 in the eight lanes of one
// group of registers and i+8..i+15 in a second, two independent dependency
// chains for each broadcast element. Each lane computes h as sketchRowsAVX2
// does, the same four VPMULUDQ partial products and the same Mersenne
// folds, to a sum of at most p+4, which VPSUBQ p and VPMINUQ bring into
// [0, p): below p the subtraction wraps past 2⁶³ and the sum is kept, else
// the difference is. The running minimum needs no sign bias: a strict
// unsigned VPCMPUQ (LT) writes a mask register, and masked VMOVDQU64 moves
// take the hash and the element's index, so the first element with the
// least hash wins a row (Empty included), as in sketchRowsGo. VPMOVQW packs
// each group's eight winner indices (< 2¹⁶ when row is not nil) into
// halfwords.
//
//	Z0 | Z16  aL     Z1 | Z17  aH     Z2 | Z18  b
//	Z3 | Z19  best   Z4 | Z20  winner index
//	Z8–Z11 | Z24–Z27  temporaries
//	Z5 element index  Z6 xL  Z7 xH  Z12 p  Z14 1
//
// Bounds: loads read a, b, s sixteen words at a time while fewer than
// len(s) rows are done, xms one word and one dword of it while fewer than
// len(xms) elements are done; stores write s sixteen words and row sixteen
// halfwords a step.
TEXT ·sketchRowsAVX512(SB), NOSPLIT, $0-120
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ s_base+48(FP), DX
	MOVQ s_len+56(FP), CX
	SHRQ $4, CX                  // row groups
	MOVQ row_base+72(FP), R8     // nil: no winners to store
	MOVQ xms_base+96(FP), R9
	MOVQ xms_len+104(FP), R12
	LEAQ (R9)(R12*8), R12        // end of xms

	MOVQ         $0x1fffffffffffffff, AX
	VPBROADCASTQ AX, Z12         // p
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z14         // the index step

group16:
	VMOVDQU64 (SI), Z0           // a (aL in the low dwords)
	VMOVDQU64 64(SI), Z16
	VPSRLQ    $32, Z0, Z1        // aH
	VPSRLQ    $32, Z16, Z17
	VMOVDQU64 (DI), Z2           // b
	VMOVDQU64 64(DI), Z18
	VMOVDQU64 (DX), Z3           // best
	VMOVDQU64 64(DX), Z19
	VPXORQ    Z4, Z4, Z4         // winner index
	VPXORQ    Z20, Z20, Z20
	VPXORQ    Z5, Z5, Z5         // this element's index
	MOVQ      R9, R11
	CMPQ      R11, R12
	JCC       store16

element16:
	VPBROADCASTQ (R11), Z6       // xL in the low dwords
	VPBROADCASTD 4(R11), Z7      // xH in the low dwords
	VPMULUDQ     Z6, Z0, Z8      // aL·xL
	VPMULUDQ     Z6, Z16, Z24
	VPMULUDQ     Z6, Z1, Z9      // aH·xL
	VPMULUDQ     Z6, Z17, Z25
	VPMULUDQ     Z7, Z0, Z10     // aL·xH
	VPMULUDQ     Z7, Z16, Z26
	VPMULUDQ     Z7, Z1, Z11     // aH·xH
	VPMULUDQ     Z7, Z17, Z27
	VPADDQ       Z10, Z9, Z9     // mid
	VPADDQ       Z26, Z25, Z25
	VPSRLQ       $29, Z9, Z10    // mid>>29
	VPSRLQ       $29, Z25, Z26
	VPSLLQ       $35, Z9, Z9
	VPSLLQ       $35, Z25, Z25
	VPSRLQ       $3, Z9, Z9      // (mid mod 2²⁹)·2³²
	VPSRLQ       $3, Z25, Z25
	VPSLLQ       $3, Z11, Z11    // aH·xH·8
	VPSLLQ       $3, Z27, Z27
	VPADDQ       Z10, Z9, Z9
	VPADDQ       Z26, Z25, Z25
	VPADDQ       Z11, Z9, Z9
	VPADDQ       Z27, Z25, Z25
	VPSRLQ       $61, Z8, Z10
	VPSRLQ       $61, Z24, Z26
	VPANDQ       Z12, Z8, Z8
	VPANDQ       Z12, Z24, Z24
	VPADDQ       Z10, Z8, Z8
	VPADDQ       Z26, Z24, Z24
	VPADDQ       Z9, Z8, Z8
	VPADDQ       Z25, Z24, Z24
	VPADDQ       Z2, Z8, Z8      // the sum, below 2⁶⁴
	VPADDQ       Z18, Z24, Z24
	VPSRLQ       $61, Z8, Z9
	VPSRLQ       $61, Z24, Z25
	VPANDQ       Z12, Z8, Z8
	VPANDQ       Z12, Z24, Z24
	VPADDQ       Z9, Z8, Z8      // folded: at most p+4
	VPADDQ       Z25, Z24, Z24
	VPSUBQ       Z12, Z8, Z9     // sum−p, past 2⁶³ when sum < p
	VPSUBQ       Z12, Z24, Z25
	VPMINUQ      Z9, Z8, Z8      // h in [0, p)
	VPMINUQ      Z25, Z24, Z24
	VPCMPUQ      $1, Z3, Z8, K1  // h < best
	VPCMPUQ      $1, Z19, Z24, K2
	VMOVDQU64    Z8, K1, Z3
	VMOVDQU64    Z24, K2, Z19
	VMOVDQU64    Z5, K1, Z4
	VMOVDQU64    Z5, K2, Z20
	VPADDQ       Z14, Z5, Z5
	ADDQ         $8, R11
	CMPQ         R11, R12
	JCS          element16

store16:
	VMOVDQU64 Z3, (DX)
	VMOVDQU64 Z19, 64(DX)
	TESTQ     R8, R8
	JEQ       next16
	VPMOVQW   Z4, (R8)
	VPMOVQW   Z20, 16(R8)
	ADDQ      $32, R8

next16:
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, DX
	DECQ CX
	JNE  group16

	VZEROUPPER
	RET
