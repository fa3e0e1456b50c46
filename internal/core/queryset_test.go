package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
)

func TestQuerySetBasics(t *testing.T) {
	qs, err := NewQuerySet(128, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if qs.K() != 128 || qs.Len() != 0 {
		t.Fatalf("fresh set K=%d Len=%d", qs.K(), qs.Len())
	}
	rng := rand.New(rand.NewSource(1))
	if err := qs.Add(1, idStream(rng, 1, 30)); err != nil {
		t.Fatal(err)
	}
	if err := qs.Add(1, idStream(rng, 1, 30)); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := qs.Add(2, nil); err == nil {
		t.Error("empty query accepted")
	}
	if qs.Len() != 1 || len(qs.IDs()) != 1 {
		t.Error("Len/IDs wrong after Add")
	}
	if err := qs.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := qs.Remove(1); err == nil {
		t.Error("double Remove accepted")
	}
}

func TestSharedQuerySetAcrossEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	qs, err := NewQuerySet(256, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	q := idStream(rng, 1, 50)
	if err := qs.Add(1, q); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 256, Seed: 7, Delta: 0.6, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}

	// Two engines monitoring different streams against the same set: one
	// stream carries the copy, the other does not.
	e1, err := NewEngineWith(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngineWith(cfg, qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(append(idStream(rng, 5, 60), q...), idStream(rng, 6, 60)...) {
		e1.PushFrame(id)
	}
	e1.Flush()
	for _, id := range idStream(rng, 9, 180) {
		e2.PushFrame(id)
	}
	e2.Flush()
	if len(e1.Matches) == 0 {
		t.Error("engine 1 missed the copy")
	}
	if len(e2.Matches) != 0 {
		t.Errorf("engine 2 produced false matches: %+v", e2.Matches)
	}
	// A query added through one engine is visible to the other.
	q2 := idStream(rng, 42, 40)
	if err := e1.AddQuery(2, q2); err != nil {
		t.Fatal(err)
	}
	if e2.NumQueries() != 2 {
		t.Error("shared Add not visible to the sibling engine")
	}
}

func TestNewEngineWithValidation(t *testing.T) {
	qs, _ := NewQuerySet(128, 1, true)
	cfg := Config{K: 256, Delta: 0.7, Lambda: 2, WindowFrames: 10}
	if _, err := NewEngineWith(cfg, qs); err == nil {
		t.Error("K mismatch accepted")
	}
	cfg.K = 128
	if _, err := NewEngineWith(cfg, qs); err == nil {
		t.Error("seed mismatch accepted")
	}
	cfg.Seed = 1
	if _, err := NewEngineWith(cfg, qs); err != nil {
		t.Errorf("matching K and seed refused: %v", err)
	}
	cfg.Delta = 0
	if _, err := NewEngineWith(cfg, qs); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestConcurrentMonitoring runs several engines over a shared set in
// parallel (with -race this verifies the locking discipline).
func TestConcurrentMonitoring(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	qs, err := NewQuerySet(256, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]uint64, 6)
	for i := range queries {
		queries[i] = idStream(rng, 10+i, 40)
		if err := qs.Add(i+1, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{K: 256, Seed: 7, Delta: 0.6, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}

	streams := make([][]uint64, 4)
	for s := range streams {
		r := rand.New(rand.NewSource(int64(100 + s)))
		var st []uint64
		st = append(st, idStream(r, 200+s, 80)...)
		st = append(st, queries[s]...) // stream s carries query s+1
		st = append(st, idStream(r, 300+s, 80)...)
		streams[s] = st
	}

	var wg sync.WaitGroup
	results := make([][]Match, len(streams))
	for s := range streams {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng, err := NewEngineWith(cfg, qs)
			if err != nil {
				t.Error(err)
				return
			}
			for _, id := range streams[s] {
				eng.PushFrame(id)
			}
			eng.Flush()
			results[s] = eng.Matches
		}(s)
	}
	// Concurrent subscription while the monitors run.
	extra := idStream(rand.New(rand.NewSource(4)), 99, 30)
	if err := qs.Add(99, extra); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for s, ms := range results {
		found := false
		for _, m := range ms {
			if m.QueryID == s+1 {
				found = true
			}
			if m.QueryID != s+1 && m.QueryID != 99 {
				t.Errorf("stream %d matched unrelated query %d", s, m.QueryID)
			}
		}
		if !found {
			t.Errorf("stream %d missed its embedded copy of query %d", s, s+1)
		}
	}
}

func TestQuerySetSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	qs, err := NewQuerySet(64, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[int][]uint64{}
	for i := 1; i <= 5; i++ {
		ids := idStream(rng, i, 20+i)
		orig[i] = ids
		if err := qs.Add(i, ids); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := qs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := Config{K: 64, Seed: 9, Delta: 0.6, Lambda: 2, WindowFrames: 5,
		Order: Sequential, Method: Bit, UseIndex: true}
	loaded, err := LoadQuerySet(cfg, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != 64 || loaded.Len() != 5 {
		t.Fatalf("loaded K=%d Len=%d", loaded.K(), loaded.Len())
	}
	// Detection behaviour must be identical: run the same stream through
	// engines over the original and loaded sets.
	stream := append(append(idStream(rng, 50, 40), orig[3]...), idStream(rng, 51, 40)...)
	run := func(set *QuerySet) []Match {
		eng, err := NewEngineWith(cfg, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range stream {
			eng.PushFrame(id)
		}
		eng.Flush()
		return eng.Matches
	}
	a, b := run(qs), run(loaded)
	if len(a) != len(b) {
		t.Fatalf("original produced %d matches, loaded %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadQuerySetErrors(t *testing.T) {
	cfg := Config{K: 32, Seed: 1}
	if _, err := LoadQuerySet(cfg, bytes.NewReader([]byte("garbage data here........."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadQuerySet(cfg, bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated payload, in both formats.
	qs, _ := NewQuerySet(32, 1, false)
	qs.Add(1, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	var buf bytes.Buffer
	qs.Save(&buf)
	for _, saved := range [][]byte{buf.Bytes(), saveSketches(qs)} {
		if _, err := LoadQuerySet(cfg, bytes.NewReader(saved)); err != nil {
			t.Fatalf("%.4s: %v", saved, err)
		}
		if _, err := LoadQuerySet(cfg, bytes.NewReader(saved[:len(saved)-10])); err == nil {
			t.Errorf("%.4s: truncated input accepted", saved)
		}
		// A header naming another K or seed is refused, in either format,
		// K = 2³²−1 included: an error, not an allocation of K hash
		// functions that kills the process.
		for _, other := range []Config{{K: 64, Seed: 1}, {K: 32, Seed: 2}, {K: math.MaxUint32, Seed: 1}} {
			hdr := bytes.Clone(saved)
			binary.BigEndian.PutUint32(hdr[4:], uint32(other.K))
			binary.BigEndian.PutUint64(hdr[8:], uint64(other.Seed))
			if _, err := LoadQuerySet(cfg, bytes.NewReader(hdr)); err == nil {
				t.Errorf("%.4s: header with K=%d seed=%d accepted under K=32 seed=1", saved, other.K, other.Seed)
			}
		}
	}
	// A whole VQS1 set at K = minhash.MaxK: one query and its ≈ 0.5 MB of
	// values, each below p so each has a winning cell. Built, its plane
	// once cost ≈ 1 GB (a posting per winning cell, each with a K-bit row
	// set); the header is refused before the body is read, so loading it
	// allocates far less than the input.
	rng := rand.New(rand.NewSource(1))
	maxK := binary.BigEndian.AppendUint32(qsMagicSketch[:], minhash.MaxK)
	maxK = binary.BigEndian.AppendUint64(maxK, uint64(cfg.Seed))
	maxK = binary.BigEndian.AppendUint64(append(maxK, 1), 1) // index flag, count
	maxK = binary.BigEndian.AppendUint64(maxK, 1)            // id
	maxK = binary.BigEndian.AppendUint64(maxK, 30)           // length
	for range minhash.MaxK {
		maxK = binary.BigEndian.AppendUint64(maxK, rng.Uint64()>>4)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadQuerySet(cfg, bytes.NewReader(maxK))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("a %d-byte set at K=%d loaded under K=%d", len(maxK), minhash.MaxK, cfg.K)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing a %d-byte set at K=%d allocated %d bytes, want < 1 MB", len(maxK), minhash.MaxK, alloc)
	}
}

// saveSketches writes qs as the VQS1 writer did: K (32 bits), seed (64),
// an index flag (8) and a count (64), then per query its id and length (64
// bits each) and its K raw sketch values, all big-endian.
func saveSketches(qs *QuerySet) []byte {
	b := binary.BigEndian.AppendUint32(qsMagicSketch[:], uint32(qs.k))
	b = binary.BigEndian.AppendUint64(b, uint64(qs.seed))
	b = append(b, 0)
	b = binary.BigEndian.AppendUint64(b, uint64(qs.Len()))
	for _, q := range sketched(qs.view().index) {
		b = binary.BigEndian.AppendUint64(b, uint64(q.ID))
		b = binary.BigEndian.AppendUint64(b, uint64(q.Length))
		for _, v := range q.Sketch {
			b = binary.BigEndian.AppendUint64(b, v)
		}
	}
	return b
}

// sketched is x.Queries with every query's sketch, those held by their
// cells too, as the plane holds it.
func sketched(x *qindex.Index) []qindex.Query {
	queries := x.Queries()
	for i, q := range queries {
		queries[i].Sketch = x.Lookup(q.ID).Sketch.Sketch()
	}
	return queries
}
