package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"vdsms/internal/minhash"
	"vdsms/internal/snapshot"
)

// boundsMeta is the pipeline stamp of every container these tests build.
var boundsMeta = snapshot.Meta{U: 16, D: 8, KeyFPS: 3}

// hostileBlob is a VFLT container whose plane blob, or whose stream blob,
// declares 2³²−1 bytes and holds a few.
type hostileBlob struct {
	name string
	data []byte
}

// hostileBlobs cuts the two hostile containers from the checkpoint of a
// pool with one idle stream, and adds a version 1 container whose VQS1
// plane declares K = minhash.MaxK and holds one query of that K: a plane
// that once cost ≈ 1 GB to build (a posting per winning cell, each with a
// K-bit row set) before the K was refused. The loader takes K from its
// caller, so the header is refused before the body is read.
func hostileBlobs(tb testing.TB) []hostileBlob {
	p, err := New(testConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Attach("cam"); err != nil {
		tb.Fatal(err)
	}
	var ck bytes.Buffer
	if err := p.Checkpoint(&ck, boundsMeta); err != nil {
		tb.Fatal(err)
	}
	full := ck.Bytes()
	planeLen := int(binary.BigEndian.Uint32(full[6:]))
	streamAt := 6 + 4 + planeLen + 4 + 2 + len("cam") // the stream blob's length
	huge := binary.BigEndian.AppendUint32(nil, 1<<32-1)
	rng := rand.New(rand.NewSource(1))
	vqs1 := binary.BigEndian.AppendUint32([]byte("VQS1"), minhash.MaxK)
	vqs1 = binary.BigEndian.AppendUint64(vqs1, uint64(testConfig(1).Engine.Seed))
	vqs1 = binary.BigEndian.AppendUint64(append(vqs1, 1), 1) // index flag, count
	vqs1 = binary.BigEndian.AppendUint64(vqs1, 1)            // id
	vqs1 = binary.BigEndian.AppendUint64(vqs1, 30)           // length
	for range minhash.MaxK {
		vqs1 = binary.BigEndian.AppendUint64(vqs1, rng.Uint64()>>4) // below p, so each value has a winner
	}
	maxK := binary.BigEndian.AppendUint16([]byte("VFLT"), 1)
	maxK = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(maxK, uint32(len(vqs1))), 0)
	return []hostileBlob{
		{"plane", append(append(bytes.Clone(full[:6]), huge...), "VQS1"...)},
		{"stream", append(append(bytes.Clone(full[:streamAt]), huge...), "VCKP"...)},
		{"plane at K = minhash.MaxK", append(maxK[:10], append(vqs1, maxK[10:]...)...)},
	}
}

// TestRestoreBlobBoundedByInput: a container whose plane or stream blob
// declares 2³²−1 bytes is refused, and reading it allocates with the bytes
// that arrive, not the length declared; a container whose plane declares a
// K other than the caller's is refused before the plane is built.
func TestRestoreBlobBoundedByInput(t *testing.T) {
	for _, c := range hostileBlobs(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Restore(testConfig(1), bytes.NewReader(c.data), boundsMeta)
		runtime.ReadMemStats(&after)
		if err == nil {
			r.Close()
			t.Fatalf("%s: a %d-byte container declaring a 2³²−1-byte blob was restored", c.name, len(c.data))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: restoring a %d-byte container allocated %d bytes, want < 1 MB", c.name, len(c.data), alloc)
		}
	}
}

// The restore path may allocate at most restoreAllocPerByte bytes per
// input byte plus restoreAllocConst, at the K of testConfig, which the
// plane and every stream are restored under whatever their bytes say. The
// per-byte term is the engine checkpoint's (core's FuzzRestoreCheckpoint:
// ≈ 570 measured on its densest input), which covers the plane's: a
// one-frame query is three or four bytes of input and, at K = 64, ≈ 1 KB
// once sketched and indexed. The constant covers a hash family, a
// window's scratch and the decoder buffers, and the pool's worker.
const (
	restoreAllocPerByte = 1024
	restoreAllocConst   = 16 << 20
)

// FuzzRestoreFleet feeds bytes down the path a restarting fleet takes:
// Restore (container framing, the shared plane, every stream's engine
// checkpoint), then one window pushed to a stream and drained. Whatever
// the bytes say, the path must not panic and must stay inside the
// allocation bound above. Stream blobs keep their FNV trailers, so a
// mutation inside one mostly stops at the integrity check; the engine
// decoder behind it is FuzzRestoreCheckpoint's (internal/core).
//
//	go test -run '^$' -fuzz FuzzRestoreFleet -fuzztime 2m ./internal/fleet
func FuzzRestoreFleet(f *testing.F) {
	// A two-stream fleet mid-window, one stream with a candidate running.
	p, err := New(testConfig(1))
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	query := idStream(rng, 1, 30)
	if err := p.AddQuery(1, query); err != nil {
		f.Fatal(err)
	}
	for i, frames := range [][]uint64{append(idStream(rng, 9, 20), query[:15]...), idStream(rng, 8, 25)} {
		s, err := p.Attach(fmt.Sprintf("cam-%d", i))
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Push(frames); err != nil {
			f.Fatal(err)
		}
	}
	var ck bytes.Buffer
	if err := p.Checkpoint(&ck, boundsMeta); err != nil {
		f.Fatal(err)
	}
	p.Close()
	if !restoreAndPush(ck.Bytes()) {
		f.Fatal("a two-stream checkpoint does not restore")
	}
	f.Add(ck.Bytes())
	for _, c := range hostileBlobs(f) {
		f.Add(c.data[:min(len(c.data), 4096)]) // the K = MaxK plane, cut short
	}
	// The same fleet in a version 1 container, its plane a VQS1 blob of
	// sketches at the caller's K.
	full := ck.Bytes()
	planeLen := int(binary.BigEndian.Uint32(full[6:]))
	vqs1 := binary.BigEndian.AppendUint32([]byte("VQS1"), uint32(testConfig(1).Engine.K))
	vqs1 = binary.BigEndian.AppendUint64(vqs1, uint64(testConfig(1).Engine.Seed))
	vqs1 = binary.BigEndian.AppendUint64(append(vqs1, 1), 1)
	vqs1 = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(vqs1, 1), uint64(len(query)))
	for range testConfig(1).Engine.K {
		vqs1 = binary.BigEndian.AppendUint64(vqs1, rng.Uint64()>>4)
	}
	v1 := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint16([]byte("VFLT"), 1), uint32(len(vqs1)))
	v1 = append(append(v1, vqs1...), full[10+planeLen:]...)
	if !restoreAndPush(v1) {
		f.Fatal("a version 1 container does not restore")
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restoreAndPush(data)
		runtime.ReadMemStats(&after)
		limit := restoreAllocPerByte*uint64(len(data)) + restoreAllocConst
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("restoring %d bytes allocated %d bytes, bound %d", len(data), got, limit)
		}
	})
}

// restoreAndPush restores a pool from VFLT bytes, pushes one window of
// cell ids to its first stream (attaching one when it has none) and
// drains. It reports whether the container restored.
func restoreAndPush(data []byte) bool {
	p, err := Restore(testConfig(1), bytes.NewReader(data), boundsMeta)
	if err != nil {
		return false
	}
	defer p.Close()
	var s *Stream
	if ids := p.StreamIDs(); len(ids) > 0 {
		s = p.Stream(ids[0])
	} else if s, err = p.Attach("fuzz"); err != nil {
		return true
	}
	_ = s.Push(idStream(rand.New(rand.NewSource(1)), 3, 10)) // a refusal is an outcome too
	p.Drain()
	return true
}
