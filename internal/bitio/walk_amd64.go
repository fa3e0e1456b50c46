package bitio

// walkBlocksAMD64 is walkBlocksGo with its loop state in registers
// (walk_amd64.s). It uses baseline x86-64 only, so it needs no CPU check.
//
//go:noescape
func walkBlocksAMD64(data []byte, pos uint, deltas []int64, mark uint64) (b int, end uint)

func init() { walkKernel = walkBlocksAMD64 }
