package qindex

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// makeQueries builds n queries over random id sets with the given family.
func makeQueries(t testing.TB, fam *minhash.Family, n int, seed int64) []Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		size := rng.Intn(30) + 10
		ids := make([]uint64, size)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		qs[i] = Query{ID: i + 1, Length: (rng.Intn(20) + 5) * 30, Sketch: fam.SketchSet(ids)}
	}
	return qs
}

// rowOf is the tests' one way of reading a row: in row order, the owner slot
// of every entry, the value that owner's sketch holds there, and the prefix
// the entry carries for it.
func rowOf(x *Index, i int) (vals []uint64, own []int32, prefixes []uint32) {
	for _, lf := range x.rows[i].leaves {
		for _, e := range lf[:lf.size()] {
			s := int32(uint32(e))
			vals, own, prefixes = append(vals, x.slots[s].sketch[i]), append(own, s), append(prefixes, uint32(e>>32))
		}
	}
	return vals, own, prefixes
}

// verifyStructure checks every invariant of the Hash-Query array against the
// queries it should hold: every row in prefix order with one entry per
// query, every entry's prefix that of the owner's sketch value at that row,
// every live slot met exactly once per row, every leaf non-empty, ascending,
// padded behind its entries and fenced by its last prefix, and the id map,
// slot table and free list consistent.
func verifyStructure(t *testing.T, x *Index, queries []Query) {
	t.Helper()
	if x.Len() != len(queries) || x.SizeTriples() != x.k*len(queries) {
		t.Fatalf("Len=%d SizeTriples=%d for %d queries", x.Len(), x.SizeTriples(), len(queries))
	}
	if len(x.slots) != len(queries)+len(x.free) {
		t.Fatalf("%d slots for %d queries + %d free", len(x.slots), len(queries), len(x.free))
	}
	for _, s := range x.free {
		if x.slots[s].length != 0 || x.slots[s].sketch != nil {
			t.Fatalf("free slot %d still holds a query", s)
		}
	}
	for i := 0; i < x.k; i++ {
		r := x.rows[i]
		if len(r.fence) != len(r.leaves) {
			t.Fatalf("row %d has %d fence keys for %d leaves", i, len(r.fence), len(r.leaves))
		}
		last := uint64(0)
		for j, lf := range r.leaves {
			n := 0
			for n < leafCap && lf[n] != pad {
				if (j > 0 || n > 0) && lf[n] <= last {
					t.Fatalf("row %d leaf %d not ascending at %d", i, j, n)
				}
				last = lf[n]
				n++
			}
			if n == 0 || slices.ContainsFunc(lf[n:], func(e uint64) bool { return e != pad }) {
				t.Fatalf("row %d leaf %d: %d entries, then %x", i, j, n, lf[n:])
			}
			if r.fence[j] != uint32(last>>32) {
				t.Fatalf("row %d leaf %d fenced by %#x, ends in %#x", i, j, r.fence[j], last>>32)
			}
		}
		vals, own, prefixes := rowOf(x, i)
		if len(own) != x.Len() {
			t.Fatalf("row %d has %d entries; index has %d queries", i, len(own), x.Len())
		}
		met := make(map[int32]bool, len(own))
		for j, s := range own {
			if j > 0 && prefixOf(vals[j-1]) > prefixOf(vals[j]) {
				t.Fatalf("row %d not in prefix order at %d", i, j)
			}
			if x.slots[s].length == 0 || prefixes[j] != prefixOf(vals[j]) {
				t.Fatalf("row %d col %d: prefix %#x does not belong to owner slot %d's value %d", i, j, prefixes[j], s, vals[j])
			}
			if met[s] {
				t.Fatalf("row %d: slot %d appears twice", i, s)
			}
			met[s] = true
		}
	}
	for _, q := range queries {
		s, ok := x.pos[q.ID]
		if !ok || x.slots[s].qid != q.ID {
			t.Fatalf("query %d missing from index", q.ID)
		}
		got, _ := x.SketchOf(q.ID)
		if &got[0] != &q.Sketch[0] {
			t.Fatalf("query %d: slot holds a copy of the sketch, want the caller's slice", q.ID)
		}
		if l, _ := x.LengthOf(q.ID); l != q.Length {
			t.Fatalf("query %d length %d, want %d", q.ID, l, q.Length)
		}
	}
}

func TestBuildAndStructure(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 1)
	queries := makeQueries(t, fam, 20, 2)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	if x.K() != 32 || x.Len() != 20 {
		t.Fatalf("K=%d Len=%d", x.K(), x.Len())
	}
	verifyStructure(t, x, queries)
}

func TestBuildValidation(t *testing.T) {
	fam, _ := minhash.NewFamily(8, 1)
	s := fam.SketchSet([]uint64{1})
	if _, err := Build(nil); err == nil {
		t.Error("empty build accepted")
	}
	if _, err := Build([]Query{{ID: 1, Length: 10, Sketch: s}, {ID: 1, Length: 10, Sketch: s}}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := Build([]Query{{ID: 1, Length: 0, Sketch: s}}); err == nil {
		t.Error("zero length accepted")
	}
	short := make(minhash.Sketch, 4)
	if _, err := Build([]Query{{ID: 1, Length: 10, Sketch: s}, {ID: 2, Length: 10, Sketch: short}}); err == nil {
		t.Error("mismatched K accepted")
	}
}

func TestQueryIDs(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 1)
	queries := makeQueries(t, fam, 5, 3)
	x, _ := Build(queries)
	ids := x.QueryIDs()
	if len(ids) != 5 {
		t.Fatalf("QueryIDs length %d", len(ids))
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		seen[id] = true
	}
	for _, q := range queries {
		if !seen[q.ID] {
			t.Errorf("query %d missing from QueryIDs", q.ID)
		}
	}
}

func TestAddRemoveOnline(t *testing.T) {
	fam, _ := minhash.NewFamily(24, 4)
	queries := makeQueries(t, fam, 10, 5)
	x, err := Build(queries[:6])
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[6:] {
		if err := x.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	verifyStructure(t, x, queries)

	// Remove a few and re-verify.
	if err := x.Remove(queries[2].ID); err != nil {
		t.Fatal(err)
	}
	if err := x.Remove(queries[8].ID); err != nil {
		t.Fatal(err)
	}
	remaining := append(append([]Query{}, queries[:2]...), queries[3:8]...)
	remaining = append(remaining, queries[9])
	verifyStructure(t, x, remaining)
	if _, ok := x.SketchOf(queries[2].ID); ok {
		t.Error("removed query still resolvable")
	}

	// Error paths.
	if err := x.Remove(queries[2].ID); err == nil {
		t.Error("double remove succeeded")
	}
	if err := x.Add(queries[0]); err == nil {
		t.Error("duplicate add succeeded")
	}
}

func TestAddRemoveFuzz(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 6)
	all := makeQueries(t, fam, 30, 7)
	x, err := Build(all[:5])
	if err != nil {
		t.Fatal(err)
	}
	inIndex := map[int]Query{}
	for _, q := range all[:5] {
		inIndex[q.ID] = q
	}
	rng := rand.New(rand.NewSource(8))
	nextAdd := 5
	for step := 0; step < 60; step++ {
		if (rng.Intn(2) == 0 && nextAdd < len(all)) || len(inIndex) <= 1 {
			q := all[nextAdd]
			nextAdd++
			if nextAdd == len(all) {
				nextAdd = 0 // recycle removed ones
			}
			if _, dup := inIndex[q.ID]; dup {
				continue
			}
			if err := x.Add(q); err != nil {
				t.Fatalf("step %d add: %v", step, err)
			}
			inIndex[q.ID] = q
		} else {
			var victim int
			for id := range inIndex {
				victim = id
				break
			}
			if err := x.Remove(victim); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			delete(inIndex, victim)
		}
		var cur []Query
		for _, q := range inIndex {
			cur = append(cur, q)
		}
		verifyStructure(t, x, cur)
	}
}

// probeMatches compares index probing to the brute-force scan: surviving
// related queries must carry identical signatures.
func TestProbeMatchesScan(t *testing.T) {
	fam, _ := minhash.NewFamily(64, 9)
	queries := makeQueries(t, fam, 25, 10)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	scan := &Scan{Queries: queries}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		// Windows share ids with queries so some relations exist.
		ids := make([]uint64, rng.Intn(20)+5)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		sk := fam.SketchSet(ids)
		delta := 0.5 + 0.4*rng.Float64()

		got := x.Probe(sk, delta)
		want := scan.Probe(sk, delta)

		gotByID := map[int]*bitsig.Signature{}
		for _, r := range got.Related {
			gotByID[r.QID] = r.Sig
		}
		wantByID := map[int]*bitsig.Signature{}
		for _, r := range want.Related {
			wantByID[r.QID] = r.Sig
		}
		if len(gotByID) != len(wantByID) {
			t.Fatalf("trial %d δ=%.2f: index found %d related, scan %d",
				trial, delta, len(gotByID), len(wantByID))
		}
		for id, wsig := range wantByID {
			gsig, ok := gotByID[id]
			if !ok {
				t.Fatalf("trial %d: query %d missing from index probe", trial, id)
			}
			for r := 0; r < 64; r++ {
				if gsig.At(r) != wsig.At(r) {
					t.Fatalf("trial %d query %d position %d: index %v, scan %v",
						trial, id, r, gsig.At(r), wsig.At(r))
				}
			}
		}
	}
}

func TestProbeSelfQueryIsAllEqual(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 12)
	queries := makeQueries(t, fam, 10, 13)
	x, _ := Build(queries)
	out := x.Probe(queries[3].Sketch, 0.7)
	var found bool
	for _, r := range out.Related {
		if r.QID == queries[3].ID {
			found = true
			if r.Sig.Similarity() != 1 {
				t.Errorf("self-probe similarity %g, want 1", r.Sig.Similarity())
			}
			if r.Length != queries[3].Length {
				t.Errorf("probe length %d, want %d", r.Length, queries[3].Length)
			}
		}
	}
	if !found {
		t.Fatal("query not related to its own sketch")
	}
}

func TestProbeUnrelatedWindow(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 14)
	queries := makeQueries(t, fam, 10, 15)
	x, _ := Build(queries)
	// Ids far outside the queries' universe: no equal min-hash expected.
	sk := fam.SketchSet([]uint64{1 << 40, 1<<40 + 1, 1<<40 + 2})
	out := x.Probe(sk, 0.7)
	if len(out.Related) != 0 {
		t.Errorf("unrelated window produced %d related queries", len(out.Related))
	}
}

func TestProbePrunesHopelessQueries(t *testing.T) {
	// With a very high δ, queries sharing only one hash value must be
	// pruned early and reported in Pruned.
	fam, _ := minhash.NewFamily(64, 16)
	qIDs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	wIDs := []uint64{8, 100, 101, 102, 103, 104, 105, 106}
	queries := []Query{{ID: 1, Length: 100, Sketch: fam.SketchSet(qIDs)}}
	x, _ := Build(queries)
	sk := fam.SketchSet(wIDs)
	out := x.Probe(sk, 0.95)
	if len(out.Related) != 0 {
		t.Errorf("barely-overlapping query not pruned at δ=0.95: %d related", len(out.Related))
	}
	// The query shares id 8 so it enters R_L, then dies by Lemma 2.
	if !slices.Contains(out.Pruned, 1) {
		t.Error("pruned query not reported in Pruned set")
	}
}

func TestScanOmitsNoEqualQueries(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 17)
	queries := makeQueries(t, fam, 10, 18)
	s := &Scan{Queries: queries}
	sk := fam.SketchSet([]uint64{1 << 50})
	out := s.Probe(sk, 0.5)
	if len(out.Related) != 0 {
		t.Errorf("scan returned %d related queries for a disjoint window", len(out.Related))
	}
}

func TestProbeAfterOnlineUpdates(t *testing.T) {
	fam, _ := minhash.NewFamily(48, 19)
	queries := makeQueries(t, fam, 12, 20)
	x, _ := Build(queries[:8])
	for _, q := range queries[8:] {
		if err := x.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	x.Remove(queries[0].ID)
	x.Remove(queries[5].ID)
	remaining := append(append([]Query{}, queries[1:5]...), queries[6:]...)
	scan := &Scan{Queries: remaining}
	sk := queries[9].Sketch
	got := x.Probe(sk, 0.6)
	want := scan.Probe(sk, 0.6)
	if len(got.Related) != len(want.Related) {
		t.Fatalf("after updates: index %d related, scan %d", len(got.Related), len(want.Related))
	}
}

// TestProbeIntoAllocatesNothing pins the scratch contract the engine relies
// on: once a scratch has seen a window of some size, probing allocates
// nothing — not when no query is related, and not per surviving signature
// either, whose planes live in the scratch.
func TestProbeIntoAllocatesNothing(t *testing.T) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(t, fam, 200, 2)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	ps := new(ProbeScratch)
	for name, sk := range map[string]minhash.Sketch{
		"unrelated": fam.SketchSet([]uint64{1 << 40, 1<<40 + 1}),
		"related":   queries[50].Sketch,
	} {
		related := len(x.ProbeInto(ps, sk, 0.7, 0, 1, nil).Related) // also warms the scratch
		if (related > 0) != (name == "related") {
			t.Fatalf("%s window has %d related queries", name, related)
		}
		if n := testing.AllocsPerRun(20, func() { x.ProbeInto(ps, sk, 0.7, 0, 1, nil) }); n != 0 {
			t.Errorf("%s window (%d related): %.1f allocs per probe, want 0", name, related, n)
		}
	}
}

// TestBytesMatchesHeap holds Bytes to what the runtime says a 500-query
// build put on the heap: the entries, the slot table and the id map, and
// not the sketches, which were there before.
func TestBytesMatchesHeap(t *testing.T) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(t, fam, 500, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if got := float64(x.Bytes()); math.Abs(got-heap) > 0.10*heap {
		t.Errorf("Bytes() = %.0f, heap grew by %.0f (%.1f%% apart, want within 10%%)", got, heap, 100*(got-heap)/heap)
	}
	if want := 500 * 800; x.SizeTriples() != want {
		t.Errorf("SizeTriples() = %d, want m·K = %d", x.SizeTriples(), want)
	}
	runtime.KeepAlive(x)
	runtime.KeepAlive(queries)
}

func BenchmarkProbeIndex200Queries(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(b, fam, 200, 2)
	x, err := Build(queries)
	if err != nil {
		b.Fatal(err)
	}
	sk := queries[50].Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Probe(sk, 0.7)
	}
}

func BenchmarkScan200Queries(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(b, fam, 200, 2)
	s := &Scan{Queries: queries}
	sk := queries[50].Sketch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Probe(sk, 0.7)
	}
}
