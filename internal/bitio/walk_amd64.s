#include "go_asm.h"
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

// Byte reversal of every quadword, for VPSHUFB: the gathered words are
// big-endian.
DATA bswapq<>+0x00(SB)/8, $0x0001020304050607
DATA bswapq<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapq<>+0x10(SB)/8, $0x0001020304050607
DATA bswapq<>+0x18(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapq<>+0x20(SB)/8, $0x0001020304050607
DATA bswapq<>+0x28(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapq<>+0x30(SB)/8, $0x0001020304050607
DATA bswapq<>+0x38(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapq<>(SB), RODATA|NOPTR, $64

// The byte offsets of eight consecutive lanes of a []Lane.
DATA laneoffs<>+0x00(SB)/8, $0
DATA laneoffs<>+0x08(SB)/8, $(1*Lane__size)
DATA laneoffs<>+0x10(SB)/8, $(2*Lane__size)
DATA laneoffs<>+0x18(SB)/8, $(3*Lane__size)
DATA laneoffs<>+0x20(SB)/8, $(4*Lane__size)
DATA laneoffs<>+0x28(SB)/8, $(5*Lane__size)
DATA laneoffs<>+0x30(SB)/8, $(6*Lane__size)
DATA laneoffs<>+0x38(SB)/8, $(7*Lane__size)
GLOBL laneoffs<>(SB), RODATA|NOPTR, $64

// SETUP loads eight lanes from the Lane array at base into one group's
// registers: act keeps the lanes Reader.walk would walk (a full load at
// the cursor, a slot to fill), cur is the cursor as an absolute bit
// address (the data pointer times 8 plus pos), last the last absolute byte
// a full load can start at, slot the address of deltas[0] and limit the
// address past the last slot. w and s are the first load, as in
// walkBlocksGo; run (the next code is in run position) starts clear.
#define SETUP(base, act, run, cur, w, s, slot, last, limit, p, l, q, dl) \
	KMOVW      act, K5                              \
	VPGATHERQQ Lane_R+Reader_data(base)(Z22*1), K5, p   \
	KMOVW      act, K5                              \
	VPGATHERQQ Lane_R+Reader_data+8(base)(Z22*1), K5, l \
	KMOVW      act, K5                              \
	VPGATHERQQ Lane_R+Reader_pos(base)(Z22*1), K5, q    \
	KMOVW      act, K5                              \
	VPGATHERQQ Lane_Deltas(base)(Z22*1), K5, slot       \
	KMOVW      act, K5                              \
	VPGATHERQQ Lane_Deltas+8(base)(Z22*1), K5, dl       \
	VPCMPQ     $5, Z25, l, act, act                 \
	VPSUBQ     Z25, l, last                         \
	VPSRLQ     $3, q, l                             \
	VPCMPQ     $2, last, l, act, act                \
	VPXORQ     l, l, l                              \
	VPCMPQ     $6, l, dl, act, act                  \
	VPADDQ     p, last, last                        \
	VPSLLQ     $3, dl, dl                           \
	VPADDQ     slot, dl, limit                      \
	VPSLLQ     $3, p, p                             \
	VPADDQ     q, p, cur                            \
	VPSRLQ     $3, cur, l                           \
	KMOVW      act, K5                              \
	VPGATHERQQ (R12)(l*1), K5, w                    \
	VPSHUFB    Z31, w, w                            \
	VPANDQ     Z30, cur, s                          \
	KXORW      run, run, run

// STEP is one step of walkBlocksGo's first pass for the active lanes of a
// group. A lane leaves act, and is never touched again, where the Go loop
// breaks: its next load would start past last, its code is longer than 28
// bits (2·lz + 1 > 28: lz ≥ 14), or its slots are full. Gathers and the
// scatter are masked by act, so a stopped lane loads and stores nothing;
// an active one loads 8 bytes at a byte it has just held to last and
// stores to a slot below limit. A step's length is the table's for a short
// prefix and 2·lz + 1 for a long code, whose table entry is 0: the larger
// of the two, since the codes a short prefix holds are together at least
// as long as the first of them, 2·lz + 1.
// deltas[b] = cur is stored only at a block's end, the one store to a
// finished block's slot that outlives the walk; cur stays frozen where a
// lane stopped, and the scratch slot is filled in from it afterwards.
#define STEP(act, run, cur, w, s, slot, last, limit, rest, t, ey, ez, n, u) \
	VPSLLVQ     s, w, rest                 \
	VPSRLQ      $52, rest, t               \
	KMOVW       act, K6                    \
	VPGATHERQD  (R11)(t*4), K6, ey         \
	VPSRLQ      $3, cur, t                 \
	VPCMPUQ     $2, last, t, act, act      \
	KMOVW       act, K5                    \
	VPGATHERQQ  (R12)(t*1), K5, w          \
	VPSHUFB     Z31, w, w                  \
	VPANDQ      Z30, cur, s                \
	VPLZCNTQ    rest, u                    \
	VPCMPUQ     $5, Z26, u, K7             \
	KANDNW      act, K7, act               \
	VPADDQ      u, u, u                    \
	VPADDQ      Z24, u, u                  \
	VPMOVZXDQ   ey, ez                     \
	VPANDQ      Z28, ez, n                 \
	VPMAXUQ     u, n, n                    \
	VPADDQ      n, s, s                    \
	VPADDQ      n, cur, act, cur           \
	VPSRLQ      $51, rest, t               \
	VPCMPEQQ    Z29, t, act, K6            \
	KANDW       run, K6, K6                \
	KMOVW       K6, K7                     \
	VPSCATTERQQ cur, K7, (R12)(slot*1)     \
	VPADDQ      Z25, slot, K6, slot        \
	VPTESTMQ    Z27, ez, K6                \
	KXORW       K6, run, run               \
	VPCMPUQ     $1, limit, slot, act, act

// func walkLanesAVX512(lanes []Lane, mark uint64)
//
// Reader.walk(walkBlocksGo, l.Deltas, mark) for each of up to 16 lanes:
// l.N becomes the blocks walked and l.R.pos the bit behind the last of
// them, and every slot of l.Deltas, scratch included, what walkBlocksGo
// leaves there. Lanes 0–7 are group A, 8–15 group B; the groups step
// together, each step one walkBlocksGo loop iteration for every lane still
// active, until none is. Then each lane's pass two reads eight deltas a
// step, each at the end of the block before, on absolute addresses.
// Preconditions: len(lanes) ≤ 16, mark>>6 == 1.
//
// Registers, pass one (A | B):
//	Z0 | Z8   cur        Z1 | Z9   w          Z2 | Z10  s
//	Z3 | Z11  slot       Z4 | Z12  last       Z5 | Z13  limit
//	K1 | K3   act        K2 | K4   run        K5–K7 scratch
//	Z24 1  Z25 8  Z26 14  Z27 0x100  Z28 0xff  Z29 mark  Z30 7  Z31 bswapq
//	R11 laneTable  R12 0 (gathers and scatters take absolute addresses)
//
// The frame holds cur (0–127) and slot (128–255) of lanes 0–15.
TEXT ·walkLanesAVX512(SB), NOSPLIT, $256-32
	MOVQ lanes_base+0(FP), SI
	MOVQ lanes_len+8(FP), CX
	LEAQ ·laneTable(SB), R11
	XORL R12, R12

	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K3

	MOVQ         $1, AX
	VPBROADCASTQ AX, Z24
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z25
	MOVQ         $14, AX
	VPBROADCASTQ AX, Z26
	MOVQ         $0x100, AX
	VPBROADCASTQ AX, Z27
	MOVQ         $0xff, AX
	VPBROADCASTQ AX, Z28
	MOVQ         mark+24(FP), AX
	VPBROADCASTQ AX, Z29
	MOVQ         $7, AX
	VPBROADCASTQ AX, Z30
	VMOVDQU64    bswapq<>(SB), Z31
	VMOVDQU64    laneoffs<>(SB), Z22

	LEAQ (8*Lane__size)(SI), DI
	SETUP(SI, K1, K2, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z14, Z15)
	SETUP(DI, K3, K4, Z8, Z9, Z10, Z11, Z12, Z13, Z17, Z18, Z19, Z20)

	// R13: the lanes walked at all, A in bits 0–7 and B in 8–15.
	KMOVW K1, R13
	KMOVW K3, AX
	SHLL  $8, AX
	ORL   AX, R13

	KORTESTW K1, K3
	JEQ      done

step:
	STEP(K1, K2, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Y14, Z14, Z15, Z16)
	STEP(K3, K4, Z8, Z9, Z10, Z11, Z12, Z13, Z17, Z18, Y19, Z19, Z20, Z21)
	KORTESTW K1, K3
	JNE      step

done:
	VMOVDQU64 Z0, 0(SP)
	VMOVDQU64 Z8, 64(SP)
	VMOVDQU64 Z3, 128(SP)
	VMOVDQU64 Z11, 192(SP)
	MOVQ         $63, AX
	VPBROADCASTQ AX, Z23

	// Per lane: pass two over deltas[0:b], the scratch slot, N and pos.
	// SI the lane, BX its index.
	XORL BX, BX

lane:
	CMPQ BX, lanes_len+8(FP)
	JCC  ret
	BTQ  BX, R13
	JCC  skip
	MOVQ Lane_Deltas(SI), DI        // &deltas[0], then pass two's next slot
	MOVQ 128(SP)(BX*8), R9          // &deltas[b]
	MOVQ Lane_R+Reader_data(SI), R11
	SHLQ $3, R11                    // the data pointer as a bit address
	MOVQ Lane_R+Reader_pos(SI), DX
	ADDQ R11, DX                    // the first block's first bit
	MOVQ DX, R10                    // R10: where the last block walked ends
	CMPQ DI, R9
	JCC  tail
	MOVQ -8(R9), R10

	// Z0's last element is where the next block starts: the end of the one
	// before. K1 is the slots of this step that hold a finished block.
	VPBROADCASTQ DX, Z0

deltas:
	MOVQ  R9, CX
	SUBQ  DI, CX
	SHRQ  $3, CX
	MOVL  $0xff, AX
	CMPQ  CX, $8
	JCC   full
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

full:
	KMOVW       AX, K1
	VMOVDQU64.Z (DI), K1, Z1        // where the blocks end
	VALIGNQ     $7, Z0, Z1, Z2      // where they start
	VMOVDQA64   Z1, Z0
	VPSRLQ      $3, Z2, Z3
	KMOVW       K1, K2
	VPGATHERQQ  (R12)(Z3*1), K2, Z4
	VPSHUFB     Z31, Z4, Z4
	VPANDQ      Z30, Z2, Z5
	VPSLLVQ     Z5, Z4, Z4          // w: the delta's code at the top
	VPLZCNTQ    Z4, Z5
	VPADDQ      Z5, Z5, Z5
	VPSUBQ      Z5, Z23, Z5         // 64 − n = 63 − 2·lz
	VPSRLVQ     Z5, Z4, Z4
	VPSUBQ      Z24, Z4, Z4         // u
	VPANDQ      Z24, Z4, Z5
	VPSRLQ      $1, Z4, Z4
	VPADDQ      Z5, Z4, Z4          // u>>1 + u&1
	VPSUBQ      Z24, Z5, Z5         // 0 for a positive value, −1 otherwise
	VPXORQ      Z5, Z4, Z4
	VPSUBQ      Z5, Z4, Z4          // seValue(u)
	VMOVDQU64   Z4, K1, (DI)
	ADDQ        $64, DI
	CMPQ        DI, R9
	JCS         deltas

tail:
	// A lane stopped with steps taken past its last block leaves its
	// cursor in the scratch slot, as the Go loop does, when it has one.
	MOVQ Lane_Deltas+8(SI), R8
	SHLQ $3, R8
	ADDQ Lane_Deltas(SI), R8        // &deltas[len]
	MOVQ 0(SP)(BX*8), AX            // cur
	CMPQ R9, R8
	JCC  counted
	CMPQ AX, R10
	JEQ  counted
	SUBQ R11, AX
	MOVQ AX, (R9)

counted:
	SUBQ R11, R10
	MOVQ R10, Lane_R+Reader_pos(SI)
	SUBQ Lane_Deltas(SI), R9
	SHRQ $3, R9
	MOVQ R9, Lane_N(SI)
	JMP  next

skip:
	MOVQ $0, Lane_N(SI)

next:
	ADDQ $Lane__size, SI
	INCQ BX
	JMP  lane

ret:
	VZEROUPPER
	RET
