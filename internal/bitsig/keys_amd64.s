#include "textflag.h"

// func keyWordsAVX2(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int)
//
// Eight positions a step: the query's keys loaded, then compared with the
// window's, signed (the keys are stored sign-flipped), for q > w (Less) and
// q == w (a key tie); VMOVMSKPS takes the eight lane signs of each as bits.
// A whole word runs as eight unrolled steps, each step's bits shifted to
// its place. The last word, of n < 64 positions, runs its steps from the
// highest down, shifting the masks left by 8 before each, and drops the
// ties of the zero padding past n. Then per word: a tie outside eq stops
// the routine, leaving hi = lt and lo = the ties; otherwise hi = lt,
// lo = lt | eq, less += popcount(lt), and the routine stops once less
// exceeds limit.
//
// Registers: SI, DI the window's and the query's keys at the word; DX the
// positions left; R8 eq at word 0 (0 for none); R9 lo, R10 hi; R11 less;
// CX the word; BX its Less mask, R13 its ties; AX, R12 scratch.
TEXT ·keyWordsAVX2(SB), NOSPLIT, $0-160
	MOVQ wk_base+0(FP), SI
	MOVQ qk_base+24(FP), DI
	MOVQ k+48(FP), DX
	MOVQ eq_base+56(FP), R8
	MOVQ eq_len+64(FP), AX
	TESTQ AX, AX
	JNZ  haveeq
	XORQ R8, R8

haveeq:
	MOVQ lo_base+80(FP), R9
	MOVQ hi_base+104(FP), R10
	MOVQ less+128(FP), R11
	XORQ CX, CX

next:
	CMPQ DX, $64
	JLT  last

	VMOVDQU   (DI), Y1
	VPCMPGTD  (SI), Y1, Y2
	VPCMPEQD  (SI), Y1, Y3
	VMOVMSKPS Y2, BX
	VMOVMSKPS Y3, R13

	VMOVDQU   32(DI), Y1
	VPCMPGTD  32(SI), Y1, Y2
	VPCMPEQD  32(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $8, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $8, AX
	ORQ       AX, R13

	VMOVDQU   64(DI), Y1
	VPCMPGTD  64(SI), Y1, Y2
	VPCMPEQD  64(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $16, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $16, AX
	ORQ       AX, R13

	VMOVDQU   96(DI), Y1
	VPCMPGTD  96(SI), Y1, Y2
	VPCMPEQD  96(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $24, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $24, AX
	ORQ       AX, R13

	VMOVDQU   128(DI), Y1
	VPCMPGTD  128(SI), Y1, Y2
	VPCMPEQD  128(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $32, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $32, AX
	ORQ       AX, R13

	VMOVDQU   160(DI), Y1
	VPCMPGTD  160(SI), Y1, Y2
	VPCMPEQD  160(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $40, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $40, AX
	ORQ       AX, R13

	VMOVDQU   192(DI), Y1
	VPCMPGTD  192(SI), Y1, Y2
	VPCMPEQD  192(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $48, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $48, AX
	ORQ       AX, R13

	VMOVDQU   224(DI), Y1
	VPCMPGTD  224(SI), Y1, Y2
	VPCMPEQD  224(SI), Y1, Y3
	VMOVMSKPS Y2, AX
	SHLQ      $56, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	SHLQ      $56, AX
	ORQ       AX, R13
	JMP       word

last:
	TESTQ DX, DX
	JLE   end

	// R12 = the byte offset of the word's highest step.
	LEAQ -1(DX), R12
	SHRQ $3, R12
	SHLQ $5, R12
	XORQ BX, BX
	XORQ R13, R13

step:
	VMOVDQU   (DI)(R12*1), Y1
	VPCMPGTD  (SI)(R12*1), Y1, Y2
	VPCMPEQD  (SI)(R12*1), Y1, Y3
	SHLQ      $8, BX
	SHLQ      $8, R13
	VMOVMSKPS Y2, AX
	ORQ       AX, BX
	VMOVMSKPS Y3, AX
	ORQ       AX, R13
	SUBQ      $32, R12
	JCC       step

	// Keep the n = DX valid positions: AX = 2ⁿ − 1.
	MOVQ  $-1, AX
	XCHGQ CX, DX
	SHLQ  CX, AX
	XCHGQ CX, DX
	NOTQ  AX
	ANDQ  AX, BX
	ANDQ  AX, R13

word:
	XORQ  AX, AX
	TESTQ R8, R8
	JZ    noeq
	MOVQ  (R8)(CX*8), AX

noeq:
	MOVQ    AX, R12
	NOTQ    R12
	ANDQ    R13, R12
	JNZ     tie
	MOVQ    BX, (R10)(CX*8)
	ORQ     BX, AX
	MOVQ    AX, (R9)(CX*8)
	POPCNTQ BX, AX
	ADDQ    AX, R11
	INCQ    CX
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $64, DX
	CMPQ    R11, limit+136(FP)
	JLE     next
	JMP     end

tie:
	MOVQ BX, (R10)(CX*8)
	MOVQ R13, (R9)(CX*8)

end:
	VZEROUPPER
	MOVQ CX, done+144(FP)
	MOVQ R11, total+152(FP)
	RET
