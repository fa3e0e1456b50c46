package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"vdsms/internal/minhash"
)

// loadCfg is the configuration FuzzLoadQuerySet loads under: K, seed and
// the index flag come from the loader, never from the bytes.
var loadCfg = Config{K: 192, Seed: 11, Delta: 0.5, Lambda: 2, WindowFrames: 10,
	Order: Sequential, Method: Bit, UseIndex: true}

// The load path may allocate at most loadAllocPerByte bytes per input byte
// plus loadAllocConst, at loadCfg's K. The densest input is a run of
// one-frame queries, three or four bytes each: each costs its K-value
// sketch (8·K = 1 536 bytes) and its slot, posting and trie share, ≈ 2 060
// bytes with the index, so ≈ 690 per input byte (measured). A sketch entry
// of the older format costs its input at least 8·K bytes for the same
// sketch. The constant covers what does not grow with the input: the hash
// family, the read buffer of one VQS1 query, and a window's sketch,
// signature and probe scratch.
const (
	loadAllocPerByte = 1100
	loadAllocConst   = 4 << 20
)

// FuzzLoadQuerySet feeds bytes down the path a detector built from a saved
// plane takes: LoadQuerySet under loadCfg, with the index or without as the
// input's first argument says, then one basic window through an engine on
// the loaded set, which sketches the window and probes the plane. Whatever
// the bytes say, the path must not panic and must stay inside the
// allocation bound above.
//
//	go test -run '^$' -fuzz FuzzLoadQuerySet -fuzztime 2m ./internal/core
func FuzzLoadQuerySet(f *testing.F) {
	plane := func(queries, frames int) *QuerySet {
		qs, err := NewQuerySet(loadCfg.K, loadCfg.Seed, true)
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(queries)))
		for id := 1; id <= queries; id++ {
			if err := qs.Add(id, idStream(rng, id%7, frames)); err != nil {
				f.Fatal(err)
			}
		}
		return qs
	}
	// Each set as Save writes it; the first also as the VQS1 writer did,
	// 8·K bytes a query, which the others would make too large to minimise.
	for i, qs := range []*QuerySet{plane(6, 30), plane(400, 1), plane(1, 2000)} {
		var buf bytes.Buffer
		if err := qs.Save(&buf); err != nil {
			f.Fatal(err)
		}
		saved := [][]byte{buf.Bytes()}
		if i == 0 {
			saved = append(saved, saveSketches(qs))
		}
		for _, s := range saved {
			for _, useIndex := range []bool{true, false} {
				if !loadAndProbe(useIndex, s) {
					f.Fatal("a saved set does not load")
				}
				f.Add(useIndex, s)
				f.Add(useIndex, s[:len(s)-5]) // the last query cut short
			}
		}
	}
	// Hostile VQS1 headers: a query at K = minhash.MaxK that never arrives,
	// and the largest query count the loader takes with nothing behind it,
	// at another K and at the loader's.
	hdr := func(k uint32, count uint64) []byte {
		h := binary.BigEndian.AppendUint32(qsMagicSketch[:], k)
		h = binary.BigEndian.AppendUint64(h, uint64(loadCfg.Seed))
		return binary.BigEndian.AppendUint64(append(h, 1), count)
	}
	f.Add(true, append(hdr(minhash.MaxK, 1), make([]byte, 16)...))
	f.Add(true, hdr(1, 1<<20))
	f.Add(true, hdr(uint32(loadCfg.K), 1<<20))
	// Hostile saved sets: a query at K = minhash.MaxK, one under another
	// seed, and a query count far past the bytes.
	hdr2 := func(k uint32, seed int64) []byte {
		h := binary.BigEndian.AppendUint32(qsMagic[:], k)
		return binary.BigEndian.AppendUint64(h, uint64(seed))
	}
	f.Add(true, append(hdr2(minhash.MaxK, loadCfg.Seed), 1, 2, 1, 7))
	f.Add(true, append(hdr2(uint32(loadCfg.K), loadCfg.Seed+1), 1, 2, 1, 7))
	f.Add(true, binary.AppendUvarint(hdr2(uint32(loadCfg.K), loadCfg.Seed), 1<<40))

	f.Fuzz(func(t *testing.T, useIndex bool, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loadAndProbe(useIndex, data)
		runtime.ReadMemStats(&after)
		limit := loadAllocPerByte*uint64(len(data)) + loadAllocConst
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("loading %d bytes allocated %d bytes, bound %d", len(data), got, limit)
		}
	})
}

// loadAndProbe loads a query set from saved bytes under loadCfg, with the
// index or without, and pushes one basic window through an engine on it. It
// reports whether the set loaded.
func loadAndProbe(useIndex bool, data []byte) bool {
	cfg := loadCfg
	cfg.UseIndex = useIndex
	qs, err := LoadQuerySet(cfg, bytes.NewReader(data))
	if err != nil {
		return false
	}
	e, err := NewEngineWith(cfg, qs)
	if err != nil {
		return false
	}
	e.PushFrames(idStream(rand.New(rand.NewSource(1)), 3, 10))
	return true
}
