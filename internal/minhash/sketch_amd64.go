package minhash

import "vdsms/internal/cpu"

// sketchRowsAVX512 is sketchRowsGo sixteen rows a step (sketch_amd64.s). It
// needs cpu.AVX512; len(s) must be a positive multiple of 16, len(a) and
// len(b) equal to it, row nil or as long, and every a, b and xms value
// below 2⁶¹.
//
//go:noescape
func sketchRowsAVX512(a, b, s []uint64, row []uint16, xms []uint64)

// sketchRowsAVX2 is sketchRowsGo four rows a step (sketch_amd64.s).
// len(s) must be a positive multiple of 4, len(a) and len(b) equal to it,
// row nil or as long, and every a, b and xms value below 2⁶¹.
//
//go:noescape
func sketchRowsAVX2(a, b, s []uint64, row []uint16, xms []uint64)

// The sixteen-row routine is dispatched only where its gain was measured:
// on CPUs that have AVX512-FP16 too. Earlier AVX-512 parts may lower their
// clock under 512-bit multiplies by more than the routine gains, which
// nobody has measured, and take the four-row routine; the tests call
// sketchRowsAVX512 by name wherever cpu.AVX512 holds.
func init() {
	if cpu.AVX512 && cpu.AVX512FP16 {
		sketchKernels = append(sketchKernels, sketchKernel{16, sketchRowsAVX512})
	}
	if cpu.AVX2 {
		sketchKernels = append(sketchKernels, sketchKernel{4, sketchRowsAVX2})
	}
}
