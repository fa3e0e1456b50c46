package bitio

import "vdsms/internal/cpu"

// walkBlocksAMD64 is walkBlocksGo with its loop state in registers
// (walk_amd64.s). It uses baseline x86-64 only, so it needs no CPU check.
//
//go:noescape
func walkBlocksAMD64(data []byte, pos uint, deltas []int64, mark uint64) (b int, end uint)

// walkLanesAVX512 is the group kernel at vector width: walkBlocksGo's first
// pass with one lane a 64-bit element, two groups of eight lanes a step
// (walk_amd64.s). It needs cpu.AVX512 and at most GroupLanes lanes.
//
//go:noescape
func walkLanesAVX512(lanes []Lane, mark uint64)

// laneTable is walkTable as walkLanesAVX512 gathers it, four bytes an
// entry: the bits in the low byte and, in bit 8, the parity of the codes —
// set for a code longer than the prefix, which counts as one.
var laneTable = func() (t [1 << skipPrefixBits]uint32) {
	for p, e := range walkTable {
		t[p] = uint32(e.bits) | uint32(e.codes&1)<<8
		if e.codes == 0 {
			t[p] = 1 << 8
		}
	}
	return t
}()

// The group kernel is latency-bound on its gathers, so it is dispatched
// only where its gain was measured: on CPUs that have AVX512-FP16 too. On
// other AVX-512 parts the gathers are slower by a factor the kernel's
// margin may not cover, and walkLanesSerial runs; the tests call
// walkLanesAVX512 by name wherever cpu.AVX512 holds.
func init() {
	walkKernel = walkBlocksAMD64
	if cpu.AVX512 && cpu.AVX512FP16 {
		groupKernel = walkLanesAVX512
	}
}
