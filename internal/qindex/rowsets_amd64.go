package qindex

import "vdsms/internal/cpu"

// rowSetsAVX512 is rowSetsGo by vector compares (rowsets_amd64.s). It needs
// cpu.AVX512; with nw = ⌈len(row)/64⌉, len(rows) must be a multiple of
// nw.
//
//go:noescape
func rowSetsAVX512(rows []uint64, row []uint16)

// The compare pass is dispatched where minhash's sixteen-row sketch routine
// is, on CPUs that have AVX512-FP16 too, the only AVX-512 parts it was
// measured on; the tests call rowSetsAVX512 by name wherever cpu.AVX512
// holds.
func init() {
	if cpu.AVX512 && cpu.AVX512FP16 {
		rowSets = rowSetsAVX512
	}
}
