package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
	"vdsms/internal/snapshot"
)

// hostileCandidateCount is the 125-byte checkpoint of snapshot's
// TestCandidateCountBoundedByInput: an idle K=800 engine whose candidate
// count was rewritten to read 2²⁴ and whose trailer was re-signed. It once
// made snapshot.Read allocate 1.88 GB before it failed.
const hostileCandidateCount = "" +
	"56434b500001d11b674f0c138d0d10290000000000000000019080000000000000009ff3" +
	"33333333333320000000000000000b00003c000000000000000000000000000000000000" +
	"000000000000000000000000000000000000000000000000000000000000000000000000" +
	"000380000040000070fa868c71bd1f2ee5"

// The restore path may allocate at most restoreAllocPerByte bytes per input
// byte, plus restoreAllocPerPlaneByte·K bytes per byte of the cell queries
// in its plane, plus restoreAllocConst. The densest input is a run of empty
// Geometric buckets: six bits of input each, ≈ 430 bytes once decoded,
// restored and carried through a window (≈ 570 per input byte, measured).
// A query of cells is three bytes or more but derives a K-value sketch and
// its index entries: ≈ 9·K bytes for a one-cell query, ≈ 3·K a plane byte,
// measured up to K = minhash.MaxK, with or without the index. The constant
// covers what does not grow with the input: a hash family, a window's
// sketch and a frame buffer at K = minhash.MaxK and w = 65 535 (≈ 2.8 MB
// in all, measured), and the decoder's copy of the input.
const (
	restoreAllocPerByte      = 1024
	restoreAllocPerPlaneByte = 8
	restoreAllocConst        = 16 << 20
)

// FuzzRestoreCheckpoint feeds bytes down the path a resuming detector takes:
// snapshot.Read, RestoreEngine under the checkpoint's own configuration,
// then one basic window through PushFrames. The FNV-1a trailer is re-signed
// first, so that a mutation reaches the decoder instead of failing the
// integrity check. Whatever the bytes say, the path must not panic and must
// stay inside the allocation bound above; and whatever snapshot.Read
// accepts must read the same once snapshot.Marshal has written it back.
//
//	go test -run '^$' -fuzz FuzzRestoreCheckpoint -fuzztime 2m ./internal/core
func FuzzRestoreCheckpoint(f *testing.F) {
	for _, c := range goldenCases {
		mid, end := goldenRun(f, c.config())
		for _, ck := range [][]byte{mid, end} {
			if !restoreOneWindow(ck) {
				f.Fatalf("%s: the golden state does not restore", c.name)
			}
			f.Add(ck)
		}
	}
	hostile, err := hex.DecodeString(hostileCandidateCount)
	if err != nil {
		f.Fatal(err)
	}
	if restoreOneWindow(hostile) {
		f.Fatal("a checkpoint claiming 2²⁴ candidates restored")
	}
	f.Add(hostile)
	// An idle engine at the largest K and w a checkpoint can hold; the same
	// with the index on and a plane of 64 one-cell queries, the densest a
	// plane can cost; the idle one with one candidate of 4 096 empty
	// signatures, by whose number RestoreEngine once sized a 64 MB block
	// before it checked one; and the densest input, 8 192 empty Geometric
	// buckets.
	idle := func(cfg Config) *snapshot.EngineState {
		e, err := NewEngine(cfg)
		if err != nil {
			f.Fatal(err)
		}
		return e.ExportState()
	}
	st := idle(Config{K: minhash.MaxK, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: maxWindowFrames})
	cells := *st
	cells.Config.UseIndex = true
	for i := range 64 {
		cells.Queries = append(cells.Queries, qindex.Query{ID: i, Length: 1, CellIDs: []uint64{uint64(i)}})
	}
	for _, ck := range [][]byte{
		snapshot.Marshal(&snapshot.Checkpoint{Engine: *st}),
		snapshot.Marshal(&snapshot.Checkpoint{Engine: cells}),
	} {
		if !restoreOneWindow(ck) {
			f.Fatal("an engine at the largest K and w does not restore")
		}
		f.Add(ck)
	}
	st.Seq = []snapshot.SeqCandidate{{Sigs: make([]snapshot.Signature, 4096)}}
	f.Add(snapshot.Marshal(&snapshot.Checkpoint{Engine: *st}))
	st = idle(Config{K: 192, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: 10, Order: Geometric})
	st.Geo = make([]snapshot.GeoBucket, 8192)
	f.Add(snapshot.Marshal(&snapshot.Checkpoint{Engine: *st}))

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data) // the engine's input must not be modified
		if len(data) >= 8 {
			h := fnv.New64a()
			h.Write(data[:len(data)-8])
			binary.BigEndian.PutUint64(data[len(data)-8:], h.Sum64())
		}
		limit := restoreAllocPerByte*uint64(len(data)) + restoreAllocConst
		if ck, err := snapshot.Read(bytes.NewReader(data)); err == nil {
			// One walk writes and reads the layout: what it reads, it
			// writes back to bytes that read the same.
			again, err := snapshot.Read(bytes.NewReader(snapshot.Marshal(ck)))
			if err != nil || !sameCheckpoint(again, ck) {
				t.Fatalf("a checkpoint written back reads as %+v, %v; want %+v", again, err, ck)
			}
			limit += planeAllowance(ck)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restoreOneWindow(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("restoring %d bytes allocated %d bytes, bound %d", len(data), got, limit)
		}
	})
}

// planeAllowance is the bound's plane term for a checkpoint: per byte of
// the query codec's encoding of the cell queries in its plane,
// restoreAllocPerPlaneByte·K, at the K the checkpoint records.
func planeAllowance(ck *snapshot.Checkpoint) uint64 {
	var cells []qindex.Query
	for _, q := range ck.Engine.Queries {
		if q.CellIDs != nil {
			cells = append(cells, q)
		}
	}
	if cells == nil {
		return 0
	}
	return restoreAllocPerPlaneByte * uint64(ck.Engine.Config.K) * uint64(len(snapshot.AppendQueries(nil, cells)))
}

// sameCheckpoint is reflect.DeepEqual with the floats compared by their
// bits, since a NaN equals nothing, itself included.
func sameCheckpoint(a, b *snapshot.Checkpoint) bool {
	ca, cb := *a, *b
	for _, f := range [][2]*float64{
		{&ca.Meta.KeyFPS, &cb.Meta.KeyFPS},
		{&ca.Engine.Config.Delta, &cb.Engine.Config.Delta},
		{&ca.Engine.Config.Lambda, &cb.Engine.Config.Lambda},
	} {
		if math.Float64bits(*f[0]) != math.Float64bits(*f[1]) {
			return false
		}
		*f[0], *f[1] = 0, 0
	}
	return reflect.DeepEqual(ca, cb)
}

// restoreOneWindow restores an engine from a checkpoint under the
// configuration it records and pushes the frames that complete one basic
// window. It reports whether the checkpoint was accepted.
func restoreOneWindow(data []byte) bool {
	ck, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return false
	}
	sc := ck.Engine.Config
	cfg := Config{
		K: sc.K, Seed: sc.Seed, Delta: sc.Delta, Lambda: sc.Lambda,
		WindowFrames: sc.WindowFrames, Order: Order(sc.Order), Method: Method(sc.Method),
		UseIndex: sc.UseIndex, DisablePrune: sc.DisablePrune,
	}
	e, err := RestoreEngine(cfg, &ck.Engine)
	if err != nil {
		return false
	}
	e.PushFrames(make([]uint64, cfg.WindowFrames-len(e.curIDs)))
	return true
}
