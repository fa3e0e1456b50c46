#include "textflag.h"

// func rowSetsAVX512(rows []uint64, row []uint16)
//
// rowSetsGo by compare, one 64-row word of every cell's set a step: the
// word's 64 halfwords of row are loaded into two registers, and for each
// cell j two VPCMPEQW against j broadcast give the word's bits in two mask
// registers, which two KMOVD move out. The tail word is read with a masked
// load and compared under the same mask, so rows past len(row) are neither
// read nor set. Every word of rows is written, so none needs clearing.
//
// Bounds: with nw = ⌈len(row)/64⌉, len(rows) must be a multiple of nw;
// with no rows or no cells it returns at once. Loads read row 64
// halfwords a step, masked to those below len(row); stores write one word
// of rows per cell and step, at rows[j·nw + step].
TEXT ·rowSetsAVX512(SB), NOSPLIT, $0-48
	MOVQ rows_base+0(FP), DI
	MOVQ rows_len+8(FP), R12
	MOVQ row_base+24(FP), SI
	MOVQ row_len+32(FP), CX      // rows left
	TESTQ R12, R12
	JEQ   done                   // no cells
	TESTQ CX, CX
	JEQ   done                   // no rows
	LEAQ  (DI)(R12*8), R12       // end of rows
	LEAQ  63(CX), R8
	SHRQ  $6, R8
	SHLQ  $3, R8                 // a set's stride: nw words

	MOVL         $1, AX
	VPBROADCASTW AX, Z3          // the cell step

word:
	MOVQ $-1, AX
	CMPQ CX, $64
	JCC  full
	MOVL $1, AX
	SHLQ CX, AX
	DECQ AX                      // the tail's len(row) mod 64 rows

full:
	KMOVQ       AX, K1
	KSHIFTRQ    $32, K1, K2
	VMOVDQU16.Z (SI), K1, Z0     // rows 0–31 of the word
	VMOVDQU16.Z 64(SI), K2, Z1   // rows 32–63
	VPXORQ      Z2, Z2, Z2       // cell index j
	MOVQ        DI, R10

cell:
	VPCMPEQW Z2, Z0, K1, K3
	VPCMPEQW Z2, Z1, K2, K4
	KMOVD    K3, AX
	KMOVD    K4, DX
	SHLQ     $32, DX
	ORQ      DX, AX
	MOVQ     AX, (R10)
	VPADDW   Z3, Z2, Z2
	ADDQ     R8, R10
	CMPQ     R10, R12
	JCS      cell

	ADDQ $8, DI
	ADDQ $128, SI
	SUBQ $64, CX
	JGT  word
	VZEROUPPER

done:
	RET
