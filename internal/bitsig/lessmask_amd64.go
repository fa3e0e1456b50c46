package bitsig

import "vdsms/internal/cpu"

// lessMaskAVX2 is lessMask at vector width, one VPCMPGTQ per four
// positions (lessmask_amd64.s). len(c) must be a multiple of 4 in [4, 64]
// and len(q) must equal it.
//
//go:noescape
func lessMaskAVX2(c, q []uint64) uint64

func init() {
	if cpu.AVX2 {
		lessMaskVec = lessMaskAVX2
	}
}
