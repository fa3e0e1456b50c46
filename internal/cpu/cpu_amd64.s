#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// Leaf 7 must exist.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JCS  no

	// Leaf 1, ECX: POPCNT (bit 23), OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
	JNE  no

	// XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0, EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no

	MOVB $1, ret+0(FP)

no:
	RET

// func hasAVX512() (subset, fp16 bool)
TEXT ·hasAVX512(SB), NOSPLIT, $0-2
	MOVB $0, subset+0(FP)
	MOVB $0, fp16+1(FP)

	// Leaf 7 must exist.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JCS  no512

	// Leaf 1, ECX: OSXSAVE (bit 27).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL  $27, CX
	JCC  no512

	// XCR0: the OS saves the XMM (bit 1), YMM (bit 2), opmask (bit 5) and
	// ZMM (bits 6 and 7) state.
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512

	// Leaf 7 subleaf 0, EBX: AVX512F (bit 16), DQ (17), CD (28), BW (30).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x50030000, BX
	CMPL BX, $0x50030000
	JNE  no512
	MOVB $1, subset+0(FP)

	// EDX: AVX512-FP16 (bit 23).
	BTL  $23, DX
	JCC  no512
	MOVB $1, fp16+1(FP)

no512:
	RET
