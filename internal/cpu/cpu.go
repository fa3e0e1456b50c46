// Package cpu reports the instruction-set extensions the vector kernels
// (bitsig's key compare, minhash's sketch rows, bitio's group walk,
// qindex's row sets) may use.
// It holds the tree's one CPUID check; every value is false off amd64.
package cpu

// AVX2 reports whether the CPU has AVX2, and POPCNT (which every AVX2 part
// has, and bitsig's kernel counts with), and the OS saves the YMM registers
// across context switches. It is set before any importing package's init
// runs.
var AVX2 bool

// AVX512 reports whether the CPU has the AVX-512 subset F, CD, BW and DQ
// and the OS saves the opmask and ZMM registers across context switches.
// It is set like AVX2.
var AVX512 bool

// AVX512FP16 reports whether AVX512 holds and the CPU also has AVX512-FP16.
// No kernel uses the instructions; the bit marks the CPU generation (Intel
// Sapphire Rapids and later) that the AVX-512 kernels were measured on, and
// they are dispatched only where it holds. The earlier AVX-512 parts —
// Skylake-SP to Ice Lake, and AMD Zen 4 — lack it. bitio's group walk is
// held back from them because their gathers run under the GDS microcode
// mitigation; minhash's sixteen-row sketch and qindex's row sets because
// Skylake-SP to Ice Lake may lower their clock under 512-bit work (the
// sketch's multiplies above all) by an amount nobody has measured against
// the routines' gain. It is set like AVX2.
var AVX512FP16 bool
