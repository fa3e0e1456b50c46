package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"vdsms/internal/minhash"
)

// The load path may allocate at most loadAllocPerByte bytes per input byte,
// plus K/16 per input byte at the K the header declares, plus
// loadAllocConst. The densest input at small K is a run of K = 1 queries,
// 24 bytes each, whose slots, postings and id trie cost ≈ 34 bytes per
// input byte once loaded and probed (measured). The K/16 term is the
// index's: a posting holds the K-bit set of rows its cell wins, so a
// sketch costs K/8 bytes for every distinct cell among its winners — up to
// K of them, which a hostile sketch (or a long query's) reaches: K/64 bytes
// per sketch byte, grown by doubling and copied once more on the way in
// (a 512 KB query at K = minhash.MaxK allocates ≈ 0.97 GB, measured). It is
// quadratic in K. The constant covers what does not grow with the input: a
// hash family at K = minhash.MaxK (1 MB), the read buffer and sketch of one
// query at that K which a cut input never fills (1 MB), and one window's
// sketch, signature and probe scratch at that K.
const (
	loadAllocPerByte = 128
	loadAllocConst   = 16 << 20
)

// FuzzLoadQuerySet feeds bytes down the path a detector built from a saved
// plane takes: LoadQuerySet, then one basic window through an engine on the
// loaded set, which sketches the window and probes the plane. Whatever the
// bytes say, the path must not panic and must stay inside the allocation
// bound above.
//
//	go test -run '^$' -fuzz FuzzLoadQuerySet -fuzztime 2m ./internal/core
func FuzzLoadQuerySet(f *testing.F) {
	save := func(k int, useIndex bool, queries, frames int) []byte {
		qs, err := NewQuerySet(k, 11, useIndex)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for id := 1; id <= queries; id++ {
			if err := qs.Add(id, idStream(rng, id%7, frames)); err != nil {
				f.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := qs.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, useIndex := range []bool{true, false} {
		for _, s := range [][]byte{save(192, useIndex, 6, 30), save(1, useIndex, 400, 3), save(minhash.MaxK, useIndex, 1, 20)} {
			if !loadAndProbe(s) {
				f.Fatal("a saved set does not load")
			}
			f.Add(s)
			f.Add(s[:len(s)-5]) // the last sketch cut short
		}
	}
	// Headers alone: a query at K = minhash.MaxK that never arrives, and the
	// largest query count the loader takes with nothing behind it.
	hdr := func(k uint32, count uint64) []byte {
		var h [25]byte
		copy(h[:], qsMagic[:])
		binary.BigEndian.PutUint32(h[4:], k)
		binary.BigEndian.PutUint64(h[8:], 11)
		h[16] = 1
		binary.BigEndian.PutUint64(h[17:], count)
		return h[:]
	}
	f.Add(append(hdr(minhash.MaxK, 1), make([]byte, 16)...))
	f.Add(hdr(1, 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loadAndProbe(data)
		runtime.ReadMemStats(&after)
		k := uint64(0)
		if len(data) >= 8 {
			k = min(uint64(binary.BigEndian.Uint32(data[4:])), minhash.MaxK)
		}
		limit := (loadAllocPerByte+k/16)*uint64(len(data)) + loadAllocConst
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("loading %d bytes allocated %d bytes, bound %d", len(data), got, limit)
		}
	})
}

// loadAndProbe loads a query set from VQS1 bytes and pushes one basic
// window through an engine on it. It reports whether the set loaded.
func loadAndProbe(data []byte) bool {
	qs, err := LoadQuerySet(bytes.NewReader(data))
	if err != nil {
		return false
	}
	e, err := NewEngineWith(Config{K: qs.K(), Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}, qs)
	if err != nil {
		return false
	}
	e.PushFrames(idStream(rand.New(rand.NewSource(1)), 3, 10))
	return true
}
