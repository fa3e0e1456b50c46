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

	// Leaf 1, ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
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
