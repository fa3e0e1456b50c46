package bitio

// DCBlocksGo is DCBlocks on the Go twin of the frame-level kernel, for the
// external benchmarks.
func DCBlocksGo(r *Reader, deltas []int64, eob uint64) (int, error) {
	return r.dcBlocks(deltas, eob, walkBlocksGo)
}
