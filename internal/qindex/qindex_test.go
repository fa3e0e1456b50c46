package qindex

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
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

// newIndex is New for tests, whose queries are valid.
func newIndex(t testing.TB, fam *minhash.Family, queries []Query) *Index {
	t.Helper()
	x, err := New(fam, queries)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// verifyStructure checks every invariant of the index against the queries
// it should hold: the postings are exactly a rebuild's from the live
// sketches — each query in the list of every cell that wins one of its rows,
// with exactly those rows, and nothing else — the tries are well formed and
// hold what they count, slot numbers are dense and distinct, and Bytes adds
// up what is reachable.
func verifyStructure(t *testing.T, x *Index, queries []Query) {
	t.Helper()
	if x.Len() != len(queries) || x.SizeTriples() != x.k*len(queries) {
		t.Fatalf("Len=%d SizeTriples=%d for %d queries", x.Len(), x.SizeTriples(), len(queries))
	}
	numbers := map[int32]bool{}
	for _, q := range queries {
		s, ok := x.ids.get(uint64(q.ID))
		if !ok || s.qid != q.ID || numbers[s.n] || s.n >= x.nslots {
			t.Fatalf("query %d missing from index, or its slot number %v reused", q.ID, s)
		}
		numbers[s.n] = true
		got, _ := x.SketchOf(q.ID)
		if &got[0] != &q.Sketch[0] {
			t.Fatalf("query %d: slot holds a copy of the sketch, want the caller's slice", q.ID)
		}
		if l, _ := x.LengthOf(q.ID); l != q.Length {
			t.Fatalf("query %d length %d, want %d", q.ID, l, q.Length)
		}
	}
	nfree := 0
	for f := x.free; f != nil; f = f.next {
		if numbers[f.n] || f.n >= x.nslots {
			t.Fatalf("free slot number %d is in use or never handed out", f.n)
		}
		numbers[f.n] = true
		nfree++
	}
	if nfree != x.nfree || len(numbers) != int(x.nslots) {
		t.Fatalf("%d free numbers (counted %d) and %d live of %d handed out", nfree, x.nfree, len(queries), x.nslots)
	}

	want := map[uint64]map[int]string{} // cell → qid → rows
	if x.fam != nil {
		for _, q := range queries {
			var g grouping
			g.group(x.fam, q.Sketch, x.nw)
			for j, c := range g.cells {
				if want[c] == nil {
					want[c] = map[int]string{}
				}
				want[c][q.ID] = fmt.Sprintf("%x", g.rows[j*x.nw:(j+1)*x.nw])
			}
		}
	}
	got := map[uint64]map[int]string{}
	bytes := x.nfree*freeBytes + slotBytes*len(queries)
	x.cells.each(func(p *postings) {
		if len(p.slots) == 0 || len(p.rows) != len(p.slots)*x.nw || got[p.cell] != nil {
			t.Fatalf("cell %x: %d postings over %d row words, or listed twice", p.cell, len(p.slots), len(p.rows))
		}
		got[p.cell] = map[int]string{}
		for at, s := range p.slots {
			if live, _ := x.ids.get(uint64(s.qid)); live != s {
				t.Fatalf("cell %x lists a slot of query %d that is not subscribed", p.cell, s.qid)
			}
			got[p.cell][s.qid] = fmt.Sprintf("%x", p.rows[at*x.nw:(at+1)*x.nw])
		}
		bytes += p.size()
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("postings differ from a rebuild from the live sketches:\ngot  %v\nwant %v", got, want)
	}
	bytes += verifyTrie(t, &x.ids) + verifyTrie(t, &x.cells)
	if x.Bytes() != bytes {
		t.Fatalf("Bytes() = %d, what is reachable adds up to %d", x.Bytes(), bytes)
	}
}

// verifyTrie checks that every leaf sits on its hash's path at the
// shallowest depth that tells it apart, and returns the nodes' footprint.
func verifyTrie[V keyed](t *testing.T, tr *trie[V]) int {
	t.Helper()
	n, bytes := 0, 0
	var walk func(nd *tnode[V], d int, path uint64) int // returns keys below
	walk = func(nd *tnode[V], d int, path uint64) int {
		bytes += nd.size()
		if nd.leafBits&nd.subBits != 0 || bits.OnesCount32(nd.leafBits) != len(nd.leaves) || bits.OnesCount32(nd.subBits) != len(nd.subs) {
			t.Fatalf("depth %d: %d leaves, %d nodes for bitmaps %b, %b", d, len(nd.leaves), len(nd.subs), nd.leafBits, nd.subBits)
		}
		keys, leaves, subs := 0, nd.leaves, nd.subs
		for b := 0; b < 1<<fanBits; b++ {
			prefix := path | uint64(b)<<(fanBits*d)
			switch {
			case nd.subBits&(1<<b) != 0:
				keys += walk(subs[0], d+1, prefix)
				subs = subs[1:]
			case nd.leafBits&(1<<b) != 0:
				if mask := uint64(1)<<(fanBits*(d+1)) - 1; spread(leaves[0].key())&mask != prefix&mask {
					t.Fatalf("depth %d: leaf %d off its hash's path", d, leaves[0].key())
				}
				leaves = leaves[1:]
				n++
				keys++
			}
		}
		if d > 0 && keys < 2 {
			t.Fatalf("depth %d: a node over %d keys", d, keys)
		}
		return keys
	}
	if tr.root != nil {
		walk(tr.root, 0, 0)
	}
	if n != tr.n || bytes != tr.bytes {
		t.Fatalf("trie counts %d values and %d bytes, holds %d and %d", tr.n, tr.bytes, n, bytes)
	}
	return bytes
}

func TestBuildAndStructure(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 1)
	queries := makeQueries(t, fam, 20, 2)
	x, err := New(fam, queries)
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
	if x, err := New(fam, nil); err != nil || x.Len() != 0 {
		t.Errorf("empty New: %v", err)
	}
	short := make(minhash.Sketch, 4)
	for name, queries := range map[string][]Query{
		"duplicate ids": {{ID: 1, Length: 10, Sketch: s}, {ID: 1, Length: 10, Sketch: s}},
		"zero length":   {{ID: 1, Length: 0, Sketch: s}},
		"mismatched K":  {{ID: 1, Length: 10, Sketch: s}, {ID: 2, Length: 10, Sketch: short}},
	} {
		if _, err := Build(queries); err == nil {
			t.Errorf("Build: %s accepted", name)
		}
		if _, err := New(fam, queries); err == nil {
			t.Errorf("New: %s accepted", name)
		}
	}
}

func TestQueryIDs(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 1)
	queries := makeQueries(t, fam, 5, 3)
	x, _ := New(fam, queries)
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
	x, err := New(fam, queries[:6])
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
	x, err := New(fam, all[:5])
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
	x, err := New(fam, queries)
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
	x, _ := New(fam, queries)
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
	x, _ := New(fam, queries)
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
	x, _ := New(fam, queries)
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
	x, _ := New(fam, queries[:8])
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
	x, err := New(fam, queries)
	if err != nil {
		t.Fatal(err)
	}
	var w minhash.Winners
	wsk := fam.SketchWinners([]uint64{7, 7, 9, 120, 300}, &w)
	ps := new(ProbeScratch)
	for _, c := range []struct {
		name string
		sk   minhash.Sketch
		w    *minhash.Winners
	}{
		{"unrelated", fam.SketchSet([]uint64{1 << 40, 1<<40 + 1}), nil},
		{"related", queries[50].Sketch, nil},
		{"related, winners named", wsk, &w},
	} {
		related := len(x.ProbeInto(ps, c.sk, 0.7, c.w).Related) // also warms the scratch
		if (related > 0) != (c.name != "unrelated") {
			t.Fatalf("%s window has %d related queries", c.name, related)
		}
		if n := testing.AllocsPerRun(20, func() { x.ProbeInto(ps, c.sk, 0.7, c.w) }); n != 0 {
			t.Errorf("%s window (%d related): %.1f allocs per probe, want 0", c.name, related, n)
		}
	}
}

// TestBytesMatchesHeap holds Bytes to what the runtime says a 500-query
// build put on the heap: the slots, posting lists and trie nodes, and not
// the sketches, which were there before.
func TestBytesMatchesHeap(t *testing.T) {
	fam, _ := minhash.NewFamily(800, 1)
	queries := makeQueries(t, fam, 500, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := New(fam, queries)
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
	x, err := New(fam, queries)
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
