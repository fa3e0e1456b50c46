package bitsig

// keyWordsAVX2 is keyWords at vector width, one VPCMPGTD and one VPCMPEQD
// per eight positions (keys_amd64.s). wk and qk must hold k positions
// rounded up to a multiple of 8, lo and hi ⌈k/64⌉ words, and eq as many
// or none.
//
//go:noescape
func keyWordsAVX2(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int)
