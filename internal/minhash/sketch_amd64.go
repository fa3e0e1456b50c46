package minhash

import "vdsms/internal/cpu"

// sketchRowsAVX2 is sketchRowsGo four rows a step (sketch_amd64.s).
// len(s) must be a positive multiple of 4, len(a) and len(b) equal to it,
// row nil or as long, and every a, b and xms value below 2⁶¹.
//
//go:noescape
func sketchRowsAVX2(a, b, s []uint64, row []uint16, xms []uint64)

func init() {
	if cpu.AVX2 {
		sketchRowsVec = sketchRowsAVX2
	}
}
