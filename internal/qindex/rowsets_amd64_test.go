package qindex

import "vdsms/internal/cpu"

// vectorRowSets are the vector row-set routines this CPU has, by name,
// whether or not rowSets dispatches them.
func vectorRowSets() map[string]func(rows []uint64, row []uint16) {
	if !cpu.AVX512 {
		return nil
	}
	return map[string]func([]uint64, []uint16){"avx512": rowSetsAVX512}
}
