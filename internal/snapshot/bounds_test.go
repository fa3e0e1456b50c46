package snapshot

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"vdsms/internal/bitio"
)

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// idleCheckpoint is an engine checkpoint with nothing in flight.
func idleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Meta:   Meta{U: 4, D: 5, KeyFPS: 2},
		Engine: EngineState{Config: Config{K: 800, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: 10}},
	}
}

// idleWithTail returns a re-signed idleCheckpoint of the given format
// version whose sections from the plane on are what tail writes. Its body
// ends in those four sections — plane, candidates, buckets, geo reports,
// an empty one a bit each, the same bit in either version — and its
// padding; the bits before them are kept and the FNV trailer recomputed.
func idleWithTail(t *testing.T, version uint16, tail func(w *bitio.Writer)) []byte {
	t.Helper()
	body := Marshal(idleCheckpoint())
	body = body[:len(body)-8]
	last := len(body)*8 - 1 // the geo-report count's bit
	for body[last>>3]>>(7-last&7)&1 == 0 {
		last--
	}
	r, w := bitio.NewReader(body), bitio.NewWriter(len(body)+8)
	for left := last - 3; left > 0; left -= 32 {
		v, err := r.ReadBits(uint(min(left, 32)))
		if err != nil {
			t.Fatal(err)
		}
		w.WriteBits(v, uint(min(left, 32)))
	}
	tail(w)
	out := bytes.Clone(w.Bytes())
	binary.BigEndian.PutUint16(out[4:], version)
	return signed(out)
}

// withCandidateCount returns a re-signed engine checkpoint with nothing in
// flight whose candidate count reads n.
func withCandidateCount(t *testing.T, n uint64) []byte {
	return idleWithTail(t, FormatVersion, func(w *bitio.Writer) {
		for _, v := range []uint64{0, n, 0, 0} {
			w.WriteUE(v)
		}
	})
}

// TestCandidateCountBoundedByInput: a checkpoint of 125 bytes
// whose candidate count reads 2²⁴ passes the trailer and once made Read
// allocate 1.88 GB of candidates before it failed. A count the bits left
// cannot hold is refused before anything is sized by it.
func TestCandidateCountBoundedByInput(t *testing.T) {
	if got := withCandidateCount(t, 0); !bytes.Equal(got, Marshal(idleCheckpoint())) {
		t.Fatal("rewriting the candidate count as 0 does not give back the checkpoint")
	}
	data := withCandidateCount(t, 1<<24)
	var err error
	alloc := allocatedBy(func() { _, err = Read(bytes.NewReader(data)) })
	if err == nil {
		t.Fatalf("a %d-byte checkpoint claiming 2²⁴ candidates was accepted", len(data))
	}
	if alloc >= 1<<20 {
		t.Errorf("reading a %d-byte checkpoint allocated %d bytes, want < 1 MB", len(data), alloc)
	}
	t.Logf("%d bytes in, %d bytes allocated: %v", len(data), alloc, err)
}
