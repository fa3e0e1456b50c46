package minhash

import "vdsms/internal/cpu"

// vectorSketchKernels are the vector routines this CPU has, whether or not
// sketchRows dispatches them, widest first.
func vectorSketchKernels() []namedSketchKernel {
	var ks []namedSketchKernel
	if cpu.AVX512 {
		ks = append(ks, namedSketchKernel{"avx512", sketchKernel{16, sketchRowsAVX512}})
	}
	if cpu.AVX2 {
		ks = append(ks, namedSketchKernel{"avx2", sketchKernel{4, sketchRowsAVX2}})
	}
	return ks
}
