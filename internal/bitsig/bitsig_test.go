package bitsig

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vdsms/internal/cpu"
	"vdsms/internal/minhash"
)

func TestCompare(t *testing.T) {
	if Compare(5, 3) != Greater || Compare(3, 3) != Equal || Compare(2, 3) != Less {
		t.Error("Compare relations wrong")
	}
}

func TestRelationString(t *testing.T) {
	if Greater.String() != ">" || Equal.String() != "=" || Less.String() != "<" {
		t.Error("Relation strings wrong")
	}
}

func TestSetAt(t *testing.T) {
	s := New(130) // spans three words
	for r := 0; r < 130; r++ {
		if s.At(r) != Greater {
			t.Fatalf("fresh position %d = %v", r, s.At(r))
		}
	}
	s.Set(0, Equal)
	s.Set(64, Less)
	s.Set(129, Equal)
	if s.At(0) != Equal || s.At(64) != Less || s.At(129) != Equal {
		t.Error("Set/At round trip failed")
	}
	s.Set(64, Greater) // Set must overwrite, including clearing bits
	if s.At(64) != Greater {
		t.Error("Set(Greater) did not clear position")
	}
	s.Set(0, Less)
	if s.At(0) != Less {
		t.Error("Equal→Less overwrite failed")
	}
}

func TestCounts(t *testing.T) {
	s := New(100)
	for r := 0; r < 30; r++ {
		s.Set(r, Equal)
	}
	for r := 30; r < 50; r++ {
		s.Set(r, Less)
	}
	g, e, l := s.Counts()
	if g != 50 || e != 30 || l != 20 {
		t.Errorf("Counts = (%d,%d,%d), want (50,30,20)", g, e, l)
	}
	if s.LessCount() != 20 {
		t.Errorf("LessCount = %d", s.LessCount())
	}
	if sim := s.Similarity(); sim != 0.3 {
		t.Errorf("Similarity = %g, want 0.3 (Lemma 1)", sim)
	}
}

// TestOrMergeTable checks every row of the paper's min/OR table:
// min{>,>}=">", min{>,=}="=", min{>,<}="<", min{=,=}="=", min{=,<}="<",
// min{<,<}="<".
func TestOrMergeTable(t *testing.T) {
	cases := []struct{ a, b, want Relation }{
		{Greater, Greater, Greater},
		{Greater, Equal, Equal},
		{Greater, Less, Less},
		{Equal, Equal, Equal},
		{Equal, Less, Less},
		{Less, Less, Less},
	}
	for _, c := range cases {
		for _, swap := range []bool{false, true} {
			a, b := c.a, c.b
			if swap {
				a, b = b, a
			}
			sa, sb := New(4), New(4)
			sa.Set(2, a)
			sb.Set(2, b)
			sa.Or(sb)
			if got := sa.At(2); got != c.want {
				t.Errorf("Or(%v,%v) = %v, want %v", a, b, got, c.want)
			}
		}
	}
}

// TestOrMatchesSketchMin is the lossless-encoding claim of Section V.A:
// the OR of the signatures of two candidate sketches equals the signature
// of their min-combination, for the same query.
func TestOrMatchesSketchMin(t *testing.T) {
	fam, _ := minhash.NewFamily(256, 1)
	q := fam.SketchSet([]uint64{10, 20, 30, 40})
	a := fam.SketchSet([]uint64{10, 25, 35})
	b := fam.SketchSet([]uint64{20, 40, 99})

	sa := FromSketches(a, q)
	sb := FromSketches(b, q)
	sa.Or(sb)

	combined := minhash.Combined(a, b)
	direct := FromSketches(combined, q)
	for r := 0; r < 256; r++ {
		if sa.At(r) != direct.At(r) {
			t.Fatalf("position %d: OR gives %v, direct signature gives %v",
				r, sa.At(r), direct.At(r))
		}
	}
	if sa.Similarity() != minhash.Similarity(combined, q) {
		t.Errorf("Lemma 1 similarity %g != sketch similarity %g",
			sa.Similarity(), minhash.Similarity(combined, q))
	}
}

func TestFromSketchesSimilarityMatchesSketch(t *testing.T) {
	fam, _ := minhash.NewFamily(512, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		var setA, setB []uint64
		for i := 0; i < 40; i++ {
			setA = append(setA, uint64(rng.Intn(100)))
			setB = append(setB, uint64(rng.Intn(100)))
		}
		a, b := fam.SketchSet(setA), fam.SketchSet(setB)
		sig := FromSketches(a, b)
		if got, want := sig.Similarity(), minhash.Similarity(a, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("signature similarity %g, sketch similarity %g", got, want)
		}
	}
}

// edge holds values at the edges of the hash range (p = 2⁶¹−1, the family's
// modulus), of a key (the high 32-bit word) and of uint64, where a kernel
// that compares signed, or keys alone, would err.
var edge = []uint64{0, 1, 1<<32 - 1, 1 << 32, 1<<61 - 2, (1<<61 - 2) &^ (1<<32 - 1), 1<<61 - 1, 1 << 61,
	1 << 63, 1<<63 | 5, math.MaxUint64 - 1, math.MaxUint64}

// edgePair draws a candidate and a query value: from edge, equal one time
// in four and sharing the key with unequal low words (in either order) one
// in four, so that both tie kinds — Equal and resolved by the low words —
// come up, Empty against Empty and against MaxUint64−1 among them.
func edgePair(rng *rand.Rand) (c, q uint64) {
	c, q = edge[rng.Intn(len(edge))], edge[rng.Intn(len(edge))]
	if rng.Intn(4) == 0 {
		q = c
	} else if rng.Intn(3) == 0 {
		q = c&^(1<<32-1) | uint64(rng.Uint32())
	}
	return c, q
}

// kernels are the routines keyWords may run, read at call time: the Go
// twin always, the vector routine where the CPU has it.
func kernels(t testing.TB) map[string]kernel {
	ks := map[string]kernel{"Go twin": keyWordsGo}
	if cpu.AVX2 {
		ks["AVX2"] = keyWordsAVX2
	} else {
		t.Log("no vector kernel on this CPU: checking the Go twin only")
	}
	return ks
}

// reference is the 64-bit oracle: the relation of every position by
// Compare, the Equal plane, and the Less count.
func reference(cand, query []uint64) (rel []Relation, eq []uint64, less int) {
	eq = make([]uint64, words(len(cand)))
	for r := range cand {
		rel = append(rel, Compare(cand[r], query[r]))
		switch rel[r] {
		case Equal:
			eq[r/64] |= 1 << (r % 64)
		case Less:
			less++
		}
	}
	return rel, eq, less
}

// stopAt is where the kernel must stop under limit: after the first word
// at which the Less count exceeds it, else at K; with the count there.
func stopAt(rel []Relation, limit int) (compared, less int) {
	for r := range rel {
		if rel[r] == Less {
			less++
		}
		if less > limit && (r%64 == 63 || r == len(rel)-1) {
			return r + 1, less
		}
	}
	return len(rel), less
}

// checkPlanes holds the signature kernel, on each routine, to Compare
// position by position: CompareInto's and LessInto's planes into dirty
// buffers (the kernel must overwrite, not OR into, its output), the Less
// count, and the early exit at every limit given.
func checkPlanes(t *testing.T, cand, query []uint64, limits ...int) {
	t.Helper()
	k := len(cand)
	rel, eq, wantLess := reference(cand, query)
	c, q := SplitOf(cand), SplitOf(query)
	for name, kw := range kernels(t) {
		for _, limit := range append([]int{k}, limits...) {
			if limit < 0 {
				continue
			}
			wantCompared, wantPartial := stopAt(rel, limit)
			for _, known := range []bool{false, true} {
				lo, hi := make([]uint64, len(eq)), make([]uint64, len(eq))
				for i := range lo {
					lo[i], hi[i] = math.MaxUint64, math.MaxUint64
				}
				var e []uint64
				if known {
					e = eq
				}
				less, compared := planes(kw, lo, hi, e, c, q, limit)
				if less != wantPartial || compared != wantCompared {
					t.Fatalf("%s K=%d limit %d eq %v: less %d after %d positions, want %d after %d",
						name, k, limit, known, less, compared, wantPartial, wantCompared)
				}
				got := &Signature{K: k, Lo: lo, Hi: hi}
				for r := 0; r < compared; r++ {
					if got.At(r) != rel[r] {
						t.Fatalf("%s K=%d limit %d eq %v position %d (%#x vs %#x): kernel %v, Compare %v",
							name, k, limit, known, r, cand[r], query[r], got.At(r), rel[r])
					}
				}
				if compared == k {
					if g, e, l := got.Counts(); g+e+l != k || g < 0 || l != wantLess {
						t.Fatalf("%s K=%d: planes hold (%d,%d,%d), want %d Less and no bit past K", name, k, g, e, l, wantLess)
					}
				}
			}
		}
	}
}

// randomPair draws a candidate and a query value of random words, equal
// one time in four: key ties come only where the values are Equal, so that
// given the Equal plane the kernel runs every word without a stop.
func randomPair(rng *rand.Rand) (c, q uint64) {
	c, q = rng.Uint64(), rng.Uint64()
	if rng.Intn(4) == 0 {
		q = c
	}
	return c, q
}

// TestCompareInto checks the whole-K kernel against Compare: every
// relation, values at the edges of the hash range, of a key and of uint64,
// key ties of both kinds, random words whose only ties are Equal, K on and
// off a multiple of 8 and of 64, and the Lemma 2 early exit.
func TestCompareInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pair := range []func(*rand.Rand) (uint64, uint64){edgePair, randomPair} {
		for _, k := range []int{1, 3, 7, 8, 63, 64, 65, 100, 128, 130, 803, 800} {
			cand, query := make([]uint64, k), make([]uint64, k)
			for r := range cand {
				cand[r], query[r] = pair(rng)
			}
			_, _, less := reference(cand, query)
			checkPlanes(t, cand, query, 0, less/2, less-1, less)
		}
	}
}

// TestLessMask runs the kernel on every K from 1 to 200 — every length of
// the last word, on and off a vector step — on edge values and crafted
// ties, on random words of random widths (whose high words often tie), and
// on random words whose only ties are Equal, alone and with a tie placed at
// the first and the last position.
func TestLessMask(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 4; trial++ {
		for k := 1; k <= 200; k++ {
			cand, query := make([]uint64, k), make([]uint64, k)
			for r := range cand {
				switch trial {
				case 0:
					cand[r], query[r] = edgePair(rng)
				case 1:
					cand[r], query[r] = rng.Uint64()>>uint(rng.Intn(64)), rng.Uint64()>>uint(rng.Intn(64))
				default:
					cand[r], query[r] = randomPair(rng)
				}
			}
			if trial != 2 {
				for _, r := range []int{0, k - 1} {
					query[r] = cand[r]&^(1<<32-1) | uint64(rng.Uint32())
				}
			}
			_, _, less := reference(cand, query)
			checkPlanes(t, cand, query, 0, less/2, less-1)
		}
	}
}

func FuzzLessMask(f *testing.F) {
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0x80})
	// Empty against MaxUint64−1, against Empty, and a key tie whose low
	// words decide Less then Greater.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1, 0, 0, 0, 7, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0,
		2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0})
	seed := make([]byte, 16*131+1)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		// 16 bytes a position, the candidate's value then the query's; the
		// byte left over, if any, sets the limit.
		k := len(data) / 16
		if k == 0 || k > 1024 {
			return
		}
		cand, query := make([]uint64, k), make([]uint64, k)
		for r := range cand {
			cand[r] = binary.LittleEndian.Uint64(data[16*r:])
			query[r] = binary.LittleEndian.Uint64(data[16*r+8:])
		}
		limit := k
		if len(data)%16 != 0 {
			limit = int(data[len(data)-1]) % (k + 1)
		}
		checkPlanes(t, cand, query, limit)
	})
}

// TestLessInto holds LessInto, given the Equal plane, to CompareInto word
// for word through the dispatch — K on and off a word and a vector step,
// dirty output planes, and every early exit TestCompareInto checks.
func TestLessInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 3, 4, 63, 64, 65, 100, 128, 803, 800} {
		cand, query := make(minhash.Sketch, k), make(minhash.Sketch, k)
		for r := range cand {
			cand[r], query[r] = edgePair(rng)
		}
		_, eq, wantLess := reference(cand, query)
		c, q := SplitOf(cand), SplitOf(query)
		n := len(eq)
		for _, limit := range []int{k, 0, wantLess / 2, wantLess - 1, wantLess} {
			if limit < 0 {
				continue
			}
			lo, hi := make([]uint64, n), make([]uint64, n)
			wlo, whi := make([]uint64, n), make([]uint64, n)
			for i := range lo {
				lo[i], hi[i] = math.MaxUint64, math.MaxUint64
			}
			less, compared := LessInto(lo, hi, eq, c, q, limit)
			wl, wc := CompareInto(wlo, whi, c, q, limit)
			if less != wl || compared != wc {
				t.Fatalf("K=%d limit %d: LessInto (less %d, compared %d), CompareInto (%d, %d)", k, limit, less, compared, wl, wc)
			}
			for w := 0; w < (compared+63)/64; w++ {
				if lo[w] != wlo[w] || hi[w] != whi[w] {
					t.Fatalf("K=%d limit %d word %d: LessInto lo %064b hi %064b, CompareInto lo %064b hi %064b",
						k, limit, w, lo[w], hi[w], wlo[w], whi[w])
				}
			}
		}
	}
}

// TestSplitRoundTrip: a split rebuilds every value exactly — Empty, 2⁶¹−2
// and the rest of the edges — whatever block it reuses, and CompareCounts
// on it agrees with Compare on the values.
func TestSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var s Split
	for _, k := range []int{1, 9, 800, 5} {
		sk := make(minhash.Sketch, k)
		cand := make(minhash.Sketch, k)
		for r := range sk {
			sk[r], cand[r] = edgePair(rng)
		}
		s.Load(sk)
		if got := s.Sketch(); s.Len() != k || !slices.Equal(got, sk) {
			t.Fatalf("K=%d: split rebuilds %x, want %x", k, got, sk)
		}
		if s.Bytes() != 8*((k+7)&^7) {
			t.Fatalf("K=%d: Bytes %d", k, s.Bytes())
		}
		e, l := s.CompareCounts(cand)
		rel, _, wl := reference(cand, sk)
		we := 0
		for _, r := range rel {
			if r == Equal {
				we++
			}
		}
		if e != we || l != wl {
			t.Fatalf("K=%d: CompareCounts (%d, %d), want (%d, %d)", k, e, l, we, wl)
		}
	}
}

func TestPrunable(t *testing.T) {
	s := New(100)
	// δ=0.7 → prune when LessCount > 30.
	for r := 0; r < 30; r++ {
		s.Set(r, Less)
	}
	if s.Prunable(0.7) {
		t.Error("LessCount=30 prunable at δ=0.7, bound is strict >")
	}
	s.Set(30, Less)
	if !s.Prunable(0.7) {
		t.Error("LessCount=31 not prunable at δ=0.7")
	}
}

// Lemma 2 soundness: a candidate that still satisfies sim >= δ can never be
// prunable, regardless of the relation mix.
func TestPropertyLemma2Sound(t *testing.T) {
	f := func(seed int64, deltaPct uint8) bool {
		delta := float64(deltaPct%50+50) / 100 // δ ∈ [0.5, 1)
		rng := rand.New(rand.NewSource(seed))
		s := New(64)
		for r := 0; r < 64; r++ {
			s.Set(r, Relation(rng.Intn(3)))
		}
		if s.Similarity() >= delta && s.Prunable(delta) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 monotonicity: OR-ing never decreases LessCount, so a pruned
// candidate's extensions stay pruned.
func TestPropertyOrMonotoneLess(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a, b := New(64), New(64)
		for r := 0; r < 64; r++ {
			a.Set(r, Relation(ra.Intn(3)))
			b.Set(r, Relation(rb.Intn(3)))
		}
		before := a.LessCount()
		a.Or(b)
		return a.LessCount() >= before && a.LessCount() >= b.LessCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	s := New(64)
	s.Set(3, Less)
	c := s.Clone()
	c.Set(3, Greater)
	if s.At(3) != Less {
		t.Error("Clone shares storage")
	}
}

func TestSizeBits(t *testing.T) {
	if New(800).SizeBits() != 1600 {
		t.Error("SizeBits != 2K")
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"New(0)":       func() { New(0) },
		"Set range":    func() { New(8).Set(8, Equal) },
		"At range":     func() { New(8).At(-1) },
		"Or mismatch":  func() { New(8).Or(New(16)) },
		"FromSketches": func() { FromSketches(make(minhash.Sketch, 4), make(minhash.Sketch, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkOrK800(b *testing.B) {
	x, y := New(800), New(800)
	for r := 0; r < 800; r += 3 {
		y.Set(r, Less)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkSimilarityK800(b *testing.B) {
	x := New(800)
	for r := 0; r < 800; r += 2 {
		x.Set(r, Equal)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Similarity()
	}
}

func BenchmarkCompareIntoK800(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	q := SplitOf(fam.SketchSet([]uint64{1, 2, 3}))
	c := SplitOf(fam.SketchSet([]uint64{2, 3, 4}))
	lo, hi := make([]uint64, 13), make([]uint64, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CompareInto(lo, hi, c, q, 800)
	}
	reportPerPosition(b)
}

func BenchmarkLessIntoK800(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	qs, cs := fam.SketchSet([]uint64{1, 2, 3}), fam.SketchSet([]uint64{2, 3, 4})
	_, eq, _ := reference(cs, qs)
	q, c := SplitOf(qs), SplitOf(cs)
	lo, hi := make([]uint64, 13), make([]uint64, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LessInto(lo, hi, eq, c, q, 800)
	}
	reportPerPosition(b)
}

// reportPerPosition adds the mean time per sketch position, each op being
// one K=800 pair.
func reportPerPosition(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(800*b.N), "ns/pos")
}

// coldSketches is the memory-bound case of a many-query probe: 2 068 query
// sketches at K=800 (≈13 MB split, past a core's L2, as on the benchmark's
// monitor-manyquery plane), each resolved against one window sketch in a
// shuffled order, so every query's keys come from beyond the L2. eq[i] is
// the Equal plane of the window against queries[i], as the index's
// postings give it.
func coldSketches() (window Split, queries []Split, eq [][]uint64) {
	fam, _ := minhash.NewFamily(800, 1)
	rng := rand.New(rand.NewSource(5))
	set := func() []uint64 {
		ids := make([]uint64, 12)
		for j := range ids {
			ids[j] = uint64(rng.Intn(4000))
		}
		return ids
	}
	sketches := make([]minhash.Sketch, 2068)
	for i := range sketches {
		sketches[i] = fam.SketchSet(set())
	}
	rng.Shuffle(len(sketches), func(i, j int) { sketches[i], sketches[j] = sketches[j], sketches[i] })
	w := fam.SketchSet(set())
	queries, eq = make([]Split, len(sketches)), make([][]uint64, len(sketches))
	for i, sk := range sketches {
		queries[i] = SplitOf(sk)
		_, eq[i], _ = reference(w, sk)
	}
	return SplitOf(w), queries, eq
}

func BenchmarkCompareIntoK800Cold(b *testing.B) {
	c, queries, _ := coldSketches()
	lo, hi := make([]uint64, 13), make([]uint64, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareInto(lo, hi, c, queries[i%len(queries)], 800)
	}
	reportPerPosition(b)
}

func BenchmarkLessIntoK800Cold(b *testing.B) {
	c, queries, eq := coldSketches()
	lo, hi := make([]uint64, 13), make([]uint64, 13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % len(queries)
		LessInto(lo, hi, eq[n], c, queries[n], 800)
	}
	reportPerPosition(b)
}

func BenchmarkFromSketchesK800(b *testing.B) {
	fam, _ := minhash.NewFamily(800, 1)
	q := fam.SketchSet([]uint64{1, 2, 3})
	c := fam.SketchSet([]uint64{2, 3, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromSketches(c, q)
	}
}
