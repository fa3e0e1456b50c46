package cpu

import (
	"runtime"
	"testing"
)

// TestKernelDispatch logs the extensions the vector kernels are chosen by,
// so that a run's log says which routines its tests exercised: AVX2 runs
// bitsig's key compare and minhash's four-row sketch; AVX512 adds the
// by-name oracle tests of the AVX-512 routines; AVX512FP16 with it
// dispatches them (bitio's group walk, minhash's sixteen-row sketch and
// qindex's row sets). Off amd64 every value must be false.
func TestKernelDispatch(t *testing.T) {
	t.Logf("GOARCH=%s AVX2=%v AVX512=%v AVX512FP16=%v", runtime.GOARCH, AVX2, AVX512, AVX512FP16)
	if AVX512FP16 && !AVX512 {
		t.Error("AVX512FP16 set without AVX512")
	}
	if runtime.GOARCH != "amd64" && (AVX2 || AVX512 || AVX512FP16) {
		t.Errorf("extensions reported on %s", runtime.GOARCH)
	}
}
