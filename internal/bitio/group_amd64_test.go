package bitio

import "vdsms/internal/cpu"

// vectorLaneWalkers is the vector group kernel, where the CPU has it.
func vectorLaneWalkers() []namedLaneWalker {
	if !cpu.AVX512 {
		return nil
	}
	return []namedLaneWalker{{"avx512", walkLanesAVX512}}
}
