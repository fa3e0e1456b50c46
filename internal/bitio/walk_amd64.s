#include "textflag.h"

// func walkBlocksAMD64(data []byte, pos uint, deltas []int64, mark uint64) (b int, end uint)
//
// walkBlocksGo step for step, with every value of its loop in a register.
// Preconditions (the caller's): len(data) ≥ 8, pos>>3 ≤ len(data)−8 and
// mark>>6 == 1.
//
// Bounds: every load is 8 bytes at a byte index i the loop has just
// compared with last = len(data)−8, so none reads past data[len−8:]; pass
// two loads only at the first bit of a block pass one has walked, whose
// byte was such an i. Stores go to deltas[b] while b < len(deltas) and,
// in pass two, to deltas[0:b].
//
// Registers, pass one:
//	SI data        R8  last          DI &deltas[b]    R9 &deltas[len]
//	R11 walkTable  DX  cur           BX w (big-endian load at the
//	CX  s          AX  rest          previous cursor's byte)
//	R13 1 when the next code is in run position
//	R10, R12 scratch
TEXT ·walkBlocksAMD64(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), SI
	MOVQ data_len+8(FP), R8
	SUBQ $8, R8
	MOVQ pos+24(FP), DX
	MOVQ deltas_base+32(FP), DI
	MOVQ deltas_len+40(FP), R9
	LEAQ (DI)(R9*8), R9
	LEAQ ·walkTable(SB), R11
	XORL R13, R13 // the first code is a DC delta: level position

	MOVQ   DX, R10
	SHRQ   $3, R10
	MOVQ   (SI)(R10*1), BX
	BSWAPQ BX
	MOVQ   DX, CX
	ANDQ   $7, CX
	CMPQ   DI, R9
	JCC    pass2

step:
	MOVQ    BX, AX
	SHLQ    CX, AX             // rest = w << s
	MOVQ    DX, R10
	SHRQ    $3, R10            // i = cur >> 3
	CMPQ    R10, R8
	JHI     pass2              // i > last: no load for the next step
	MOVQ    (SI)(R10*1), BX
	BSWAPQ  BX                 // the next step's word
	MOVQ    AX, R10
	SHRQ    $52, R10
	MOVWLZX (R11)(R10*2), R10  // walkTable[rest>>52]: bits | codes<<8
	MOVBQZX R10, R12           // n
	SHRQ    $8, R10            // codes
	JEQ     long

advance:
	MOVQ  DX, CX
	ANDQ  $7, CX
	ADDQ  R12, DX              // cur += n
	ADDQ  R12, CX              // s = cur&7 + n, against the new word
	MOVQ  DX, (DI)             // deltas[b] = cur
	XORL  R12, R12
	SHRQ  $51, AX
	CMPQ  AX, mark+56(FP)
	SETEQ R12                  // the step was the marker's code word
	ANDQ  R13, R12             // in run position: the block ends
	LEAQ  (DI)(R12*8), DI
	XORQ  R10, R13             // the parity moves by the codes retired
	CMPQ  DI, R9
	JCS   step
	JMP   pass2

long:
	// One code, 15 bits or longer: n = 2·lz(rest)+1 = 127 − 2·bsr(rest).
	BSRQ AX, R12
	JEQ  pass2                 // rest == 0: longer than 28 bits
	SHLQ $1, R12
	NEGQ R12
	ADDQ $127, R12
	CMPQ R12, $28
	JHI  pass2
	MOVL $1, R10
	JMP  advance

pass2:
	// deltas[0:b] hold where each block ends; read each block's delta at
	// the end of the one before. R9 walks the slots, DX is the start.
	MOVQ deltas_base+32(FP), R9
	MOVQ pos+24(FP), DX
	CMPQ R9, DI
	JCC  ret

delta:
	MOVQ   (R9), R10            // where this block ends
	MOVQ   DX, AX
	SHRQ   $3, AX
	MOVQ   (SI)(AX*1), AX
	BSWAPQ AX
	MOVQ   DX, CX
	ANDQ   $7, CX
	SHLQ   CX, AX               // w: the delta's code at the top
	BSRQ   AX, CX
	LEAQ   -63(CX)(CX*1), CX    // 64 − n = 2·bsr − 63
	SHRQ   CX, AX
	DECQ   AX                   // u
	MOVQ   AX, CX
	ANDQ   $1, CX
	SHRQ   $1, AX
	ADDQ   CX, AX               // u>>1 + u&1
	DECQ   CX                   // 0 for a positive value, −1 otherwise
	XORQ   CX, AX
	SUBQ   CX, AX               // seValue(u)
	MOVQ   AX, (R9)
	MOVQ   R10, DX
	ADDQ   $8, R9
	CMPQ   R9, DI
	JCS    delta

ret:
	MOVQ DX, end+72(FP)
	SUBQ deltas_base+32(FP), DI
	SHRQ $3, DI
	MOVQ DI, b+64(FP)
	RET
