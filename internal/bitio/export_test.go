package bitio

import "testing"

// DCBlocksGo is DCBlocks on the Go twin of the frame-level kernel, for the
// external benchmarks.
func DCBlocksGo(r *Reader, deltas []int64, eob uint64) (int, error) {
	return r.dcBlocks(deltas, eob, walkBlocksGo)
}

// A LaneKernel is a kernel by name as the external tests call it: on every
// lane, what Reader.walk does.
type LaneKernel struct {
	Name string
	Walk func(lanes []Lane, mark uint64)
}

// LaneKernels returns the Go twin of the frame-level kernel run once per
// lane, the oracle, and then the group kernels this CPU runs (laneWalkers),
// whose serial twin runs the frame-level kernel DCBlocks dispatches to.
func LaneKernels(tb testing.TB) []LaneKernel {
	ks := []LaneKernel{{"Go twin", func(lanes []Lane, mark uint64) {
		for i := range lanes {
			lanes[i].N = lanes[i].R.walk(walkBlocksGo, lanes[i].Deltas, mark)
		}
	}}}
	for _, k := range laneWalkers(tb) {
		ks = append(ks, LaneKernel{"group " + k.name, k.walk})
	}
	return ks
}
