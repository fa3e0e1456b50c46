//go:build !amd64

package bitsig

// keyWordsAVX2 exists on amd64 alone; cpu.AVX2 is false everywhere else,
// so keyWords never calls this.
func keyWordsAVX2(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int) {
	panic("bitsig: no AVX2 routine off amd64")
}
