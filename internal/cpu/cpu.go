// Package cpu reports the instruction-set extensions the vector kernels
// (bitsig's Less mask, minhash's sketch rows) may use. It holds the tree's
// one CPUID check; every value is false off amd64.
package cpu

// AVX2 reports whether the CPU has AVX2 and the OS saves the YMM registers
// across context switches. It is set before any importing package's init
// runs.
var AVX2 bool
