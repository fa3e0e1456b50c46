#include "textflag.h"

// func lessMaskAVX2(c, q []uint64) uint64
//
// Four positions a compare: both operands XORed with the sign bit, so that
// the signed VPCMPGTQ orders them as unsigned values (Empty and values
// ≥ 2⁶³ included); q > c lane by lane; VMOVMSKPD takes the four lane signs
// as bits, which are shifted to the compare's first position and ORed into
// the mask. The main loop does four compares (16 positions) a step, the
// tail loop one.
TEXT ·lessMaskAVX2(SB), NOSPLIT, $0-56
	MOVQ c_base+0(FP), SI
	MOVQ c_len+8(FP), DX
	MOVQ q_base+24(FP), DI
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X4
	VPBROADCASTQ X4, Y4
	XORQ BX, BX  // the mask
	XORQ CX, CX  // the step's first position
	MOVQ DX, R8
	ANDQ $~15, R8 // positions covered by whole steps of 16
	JZ   tail

loop16:
	VPXOR     (SI), Y4, Y0
	VPXOR     (DI), Y4, Y1
	VPCMPGTQ  Y0, Y1, Y0
	VPXOR     32(SI), Y4, Y1
	VPXOR     32(DI), Y4, Y2
	VPCMPGTQ  Y1, Y2, Y1
	VPXOR     64(SI), Y4, Y2
	VPXOR     64(DI), Y4, Y3
	VPCMPGTQ  Y2, Y3, Y2
	VPXOR     96(SI), Y4, Y3
	VPXOR     96(DI), Y4, Y5
	VPCMPGTQ  Y3, Y5, Y3
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y1, R9
	VMOVMSKPD Y2, R10
	VMOVMSKPD Y3, R11
	SHLQ      $4, R9
	SHLQ      $8, R10
	SHLQ      $12, R11
	ORQ       R9, AX
	ORQ       R11, R10
	ORQ       R10, AX
	SHLQ      CX, AX
	ORQ       AX, BX
	ADDQ      $128, SI
	ADDQ      $128, DI
	ADDQ      $16, CX
	CMPQ      CX, R8
	JCS       loop16

tail:
	CMPQ CX, DX
	JCC  done

loop4:
	VPXOR     (SI), Y4, Y0
	VPXOR     (DI), Y4, Y1
	VPCMPGTQ  Y0, Y1, Y0
	VMOVMSKPD Y0, AX
	SHLQ      CX, AX
	ORQ       AX, BX
	ADDQ      $32, SI
	ADDQ      $32, DI
	ADDQ      $4, CX
	CMPQ      CX, DX
	JCS       loop4

done:
	VZEROUPPER
	MOVQ BX, ret+48(FP)
	RET
