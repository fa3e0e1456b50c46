package minhash

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vdsms/internal/partition"
)

func TestNewFamilyValidation(t *testing.T) {
	if _, err := NewFamily(0, 1); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewFamily(-5, 1); err == nil {
		t.Error("K<0 accepted")
	}
	f, err := NewFamily(16, 1)
	if err != nil || f.K() != 16 {
		t.Fatalf("NewFamily(16) = %v, %v", f, err)
	}
}

func TestFamilyDeterministic(t *testing.T) {
	a, _ := NewFamily(8, 42)
	b, _ := NewFamily(8, 42)
	for i := 0; i < 8; i++ {
		if a.Hash(i, 12345) != b.Hash(i, 12345) {
			t.Fatal("same seed produced different hash functions")
		}
	}
	c, _ := NewFamily(8, 43)
	same := 0
	for i := 0; i < 8; i++ {
		if a.Hash(i, 12345) == c.Hash(i, 12345) {
			same++
		}
	}
	if same == 8 {
		t.Error("different seeds produced identical families")
	}
}

func TestHashInRange(t *testing.T) {
	f, _ := NewFamily(32, 7)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		i := rng.Intn(32)
		x := rng.Uint64()
		h := f.Hash(i, x)
		if h >= mersennePrime {
			t.Fatalf("hash %d out of field", h)
		}
	}
}

func TestMulAddModAgainstBigIntSemantics(t *testing.T) {
	// Cross-check the Mersenne reduction against naive modular arithmetic
	// on values small enough for direct computation, plus edge values.
	cases := []struct{ a, x, b uint64 }{
		{1, 0, 0},
		{1, 1, 0},
		{mersennePrime - 1, mersennePrime - 1, mersennePrime - 1},
		{123456789, 987654321, 555},
		{1 << 60, 1 << 60, 1 << 60},
	}
	for _, c := range cases {
		got := mulAddMod(c.a, c.x%mersennePrime, c.b)
		want := naiveMulAddMod(c.a, c.x%mersennePrime, c.b)
		if got != want {
			t.Errorf("mulAddMod(%d,%d,%d) = %d, want %d", c.a, c.x, c.b, got, want)
		}
	}
}

// naiveMulAddMod computes (a·x+b) mod p by schoolbook double-and-add,
// avoiding overflow without 128-bit tricks.
func naiveMulAddMod(a, x, b uint64) uint64 {
	var acc uint64
	addMod := func(u, v uint64) uint64 {
		u %= mersennePrime
		v %= mersennePrime
		if u >= mersennePrime-v {
			return u - (mersennePrime - v)
		}
		return u + v
	}
	for x > 0 {
		if x&1 == 1 {
			acc = addMod(acc, a)
		}
		a = addMod(a, a)
		x >>= 1
	}
	return addMod(acc, b)
}

func TestPropertyMulAddMod(t *testing.T) {
	f := func(a, x, b uint64) bool {
		a, x, b = a%mersennePrime, x%mersennePrime, b%mersennePrime
		if a == 0 {
			a = 1
		}
		return mulAddMod(a, x, b) == naiveMulAddMod(a, x, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSketchEmpty(t *testing.T) {
	f, _ := NewFamily(8, 1)
	s := f.NewSketch()
	if !s.IsEmpty() {
		t.Error("fresh sketch not empty")
	}
	f.Add(s, 99)
	if s.IsEmpty() {
		t.Error("sketch empty after Add")
	}
}

func TestSketchOrderInvariance(t *testing.T) {
	f, _ := NewFamily(64, 2)
	ids := []uint64{5, 17, 203, 4096, 77777}
	a := f.SketchSet(ids)
	rev := []uint64{77777, 4096, 203, 17, 5}
	b := f.SketchSet(rev)
	if Similarity(a, b) != 1 {
		t.Error("sketch depends on insertion order")
	}
}

// TestSketchSetIgnoresDuplicates: on random multisets of 1 to 10⁴ elements
// the sketch equals, position for position, the sketch built by adding each
// distinct element once — whether the duplicates are adjacent, scattered,
// or outnumber the filter's slots — and the sketch is SketchSet's only
// allocation.
func TestSketchSetIgnoresDuplicates(t *testing.T) {
	f, _ := NewFamily(64, 3)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 64, 65, 500, 10000} {
		for _, universe := range []int{1, 5, 63, 200, 1 << 20} {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = rng.Uint64() % uint64(universe) * 0x9e3779b97f4a7c15
			}
			if universe == 5 { // a window's shape: runs of one cell
				slices.Sort(ids)
			}
			want := f.NewSketch()
			distinct := map[uint64]bool{}
			for _, x := range ids {
				if !distinct[x] {
					distinct[x] = true
					f.Add(want, x)
				}
			}
			if got := f.SketchSet(ids); !slices.Equal(got, want) {
				t.Fatalf("n=%d universe=%d (%d distinct): sketch differs from the distinct set's", n, universe, len(distinct))
			}
			if allocs := testing.AllocsPerRun(10, func() { f.SketchSet(ids) }); allocs != 1 {
				t.Errorf("n=%d universe=%d: %v allocations per SketchSet, want 1 (the sketch)", n, universe, allocs)
			}
		}
	}
}

// TestInvert: every row maps a hash value back to the one premixed element
// that hashes to it, and values no element hashes to map to none.
func TestInvert(t *testing.T) {
	f, _ := NewFamily(50, 8)
	rng := rand.New(rand.NewSource(8))
	for n := 0; n < 2000; n++ {
		i, x := rng.Intn(f.K()), rng.Uint64()
		if xm, ok := f.Invert(i, f.Hash(i, x)); !ok || xm != premix(x) {
			t.Fatalf("row %d: Invert(Hash(%d)) = %d, %v; want %d", i, x, xm, ok, premix(x))
		}
		v := rng.Uint64() % mersennePrime
		if xm, ok := f.Invert(i, v); !ok || mulAddMod(f.a[i], xm, f.b[i]) != v {
			t.Fatalf("row %d: %d inverts to %d, %v, which hashes elsewhere", i, v, xm, ok)
		}
	}
	for _, v := range []uint64{mersennePrime, mersennePrime + 1, Empty} {
		if _, ok := f.Invert(0, v); ok {
			t.Errorf("Invert(%d) names an element", v)
		}
	}
}

// TestSketchWinners: the sketch is SketchSet's, every row's named winner
// hashes to the row's value, a set too large to name leaves Row empty, and
// with its buffers grown the sketch is the only allocation.
func TestSketchWinners(t *testing.T) {
	f, _ := NewFamily(100, 9)
	rng := rand.New(rand.NewSource(9))
	var w Winners
	for _, n := range []int{1, 3, 10, 300, 2000} {
		for _, universe := range []int{1, 6, 200, 1 << 20} {
			ids := make([]uint64, n)
			for i := range ids {
				ids[i] = rng.Uint64() % uint64(universe)
			}
			s := f.SketchWinners(ids, &w)
			if !slices.Equal(s, f.SketchSet(ids)) {
				t.Fatalf("n=%d universe=%d: sketch differs from SketchSet's", n, universe)
			}
			if named := len(w.Row) > 0; named != (len(w.Cells) <= MaxWinners) {
				t.Fatalf("n=%d universe=%d: %d cells, %d rows named", n, universe, len(w.Cells), len(w.Row))
			}
			for i, j := range w.Row {
				if mulAddMod(f.a[i], w.Cells[j], f.b[i]) != s[i] {
					t.Fatalf("n=%d universe=%d row %d: winner %d does not hash to the minimum", n, universe, i, j)
				}
			}
			if allocs := testing.AllocsPerRun(10, func() { f.SketchWinners(ids, &w) }); allocs != 1 {
				t.Errorf("n=%d universe=%d: %v allocations per SketchWinners, want 1", n, universe, allocs)
			}
		}
	}
	wide := make([]uint64, MaxWinners+1)
	for i := range wide {
		wide[i] = uint64(i) << 20
	}
	if s := f.SketchWinners(wide, &w); len(w.Row) != 0 || !slices.Equal(s, f.SketchSet(wide)) {
		t.Fatalf("%d cells: %d rows named, or the sketch differs from SketchSet's", len(w.Cells), len(w.Row))
	}
}

// TestSketchWinnersRepeatedCell: two ids that evict each other from the
// duplicate filter list an element twice, and then the first entry wins
// every row the element holds.
func TestSketchWinnersRepeatedCell(t *testing.T) {
	f, _ := NewFamily(200, 10)
	a, b := uint64(1), uint64(2)
	for premix(b)%seenSlots != premix(a)%seenSlots {
		b++
	}
	var w Winners
	s := f.SketchWinners([]uint64{a, b, a}, &w)
	if !slices.Equal(w.Cells, []uint64{premix(a), premix(b), premix(a)}) {
		t.Fatalf("cells %v, want a, b, a", w.Cells)
	}
	won := [3]int{}
	for i, j := range w.Row {
		won[j]++
		if mulAddMod(f.a[i], w.Cells[j], f.b[i]) != s[i] {
			t.Fatalf("row %d: winner %d does not hash to the minimum", i, j)
		}
	}
	if won[0] == 0 || won[1] == 0 || won[2] != 0 {
		t.Fatalf("rows won by a, b, a again: %v", won)
	}
}

func TestCombineIsUnionSketch(t *testing.T) {
	f, _ := NewFamily(128, 4)
	setA := []uint64{1, 2, 3, 4, 5}
	setB := []uint64{4, 5, 6, 7, 8}
	union := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	sa, sb := f.SketchSet(setA), f.SketchSet(setB)
	comb := Combined(sa, sb)
	direct := f.SketchSet(union)
	if Similarity(comb, direct) != 1 {
		t.Error("Property 1 violated: combined sketch != union sketch")
	}
}

func TestCombineAssociativeCommutative(t *testing.T) {
	f, _ := NewFamily(64, 5)
	a := f.SketchSet([]uint64{1, 2})
	b := f.SketchSet([]uint64{3, 4})
	c := f.SketchSet([]uint64{5, 6})
	ab := Combined(a, b)
	abc1 := Combined(ab, c)
	bc := Combined(b, c)
	abc2 := Combined(a, bc)
	cba := Combined(Combined(c, b), a)
	if Similarity(abc1, abc2) != 1 || Similarity(abc1, cba) != 1 {
		t.Error("Combine not associative/commutative")
	}
}

func TestSimilarityEstimatesJaccard(t *testing.T) {
	// With K=2048 the standard error is about 1/√K ≈ 0.022; a tolerance of
	// 0.1 gives a negligible flake probability.
	f, _ := NewFamily(2048, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		overlap := rng.Intn(80) + 10
		onlyA := rng.Intn(50) + 10
		onlyB := rng.Intn(50) + 10
		var a, b []uint64
		next := uint64(1)
		for i := 0; i < overlap; i++ {
			a = append(a, next)
			b = append(b, next)
			next++
		}
		for i := 0; i < onlyA; i++ {
			a = append(a, next)
			next++
		}
		for i := 0; i < onlyB; i++ {
			b = append(b, next)
			next++
		}
		want := partition.Jaccard(a, b)
		got := Similarity(f.SketchSet(a), f.SketchSet(b))
		if math.Abs(got-want) > 0.1 {
			t.Errorf("trial %d: estimated %g, exact %g", trial, got, want)
		}
	}
}

func TestSimilarityDisjointNearZero(t *testing.T) {
	f, _ := NewFamily(1024, 8)
	var a, b []uint64
	for i := uint64(0); i < 100; i++ {
		a = append(a, i)
		b = append(b, i+1000)
	}
	if got := Similarity(f.SketchSet(a), f.SketchSet(b)); got > 0.05 {
		t.Errorf("disjoint sets estimated similarity %g", got)
	}
}

func TestMinWiseUniformity(t *testing.T) {
	// For min-wise independent permutations every element of a set is the
	// minimiser with equal probability 1/|X| (Theorem 1). Check empirically
	// across many hash functions.
	const setSize = 10
	const k = 4000
	f, _ := NewFamily(k, 9)
	ids := make([]uint64, setSize)
	for i := range ids {
		ids[i] = uint64(i * 7919) // arbitrary spread
	}
	counts := make(map[uint64]int)
	for i := 0; i < k; i++ {
		bestID, best := uint64(0), Empty
		for _, x := range ids {
			if h := f.Hash(i, x); h < best {
				best, bestID = h, x
			}
		}
		counts[bestID]++
	}
	want := float64(k) / setSize
	for _, x := range ids {
		got := float64(counts[x])
		if math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("element %d minimises %g times, want ≈%g", x, got, want)
		}
	}
}

func TestEqualCount(t *testing.T) {
	f, _ := NewFamily(256, 10)
	a := f.SketchSet([]uint64{1, 2, 3})
	b := a.Clone()
	if EqualCount(a, b) != 256 {
		t.Error("EqualCount of identical sketches != K")
	}
	b[0] = b[0] + 1
	if EqualCount(a, b) != 255 {
		t.Error("EqualCount after one perturbation != K-1")
	}
}

func TestCloneIndependence(t *testing.T) {
	f, _ := NewFamily(8, 11)
	a := f.SketchSet([]uint64{1})
	b := a.Clone()
	b[3] = 0
	if a[3] == 0 {
		t.Error("Clone shares storage")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	f8, _ := NewFamily(8, 1)
	f16, _ := NewFamily(16, 1)
	a, b := f8.NewSketch(), f16.NewSketch()
	for name, fn := range map[string]func(){
		"Combine":    func() { Combine(a, b) },
		"Similarity": func() { Similarity(a, b) },
		"EqualCount": func() { EqualCount(a, b) },
		"Add":        func() { f16.Add(a, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkAdd(b *testing.B) {
	f, _ := NewFamily(800, 1)
	s := f.NewSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(s, uint64(i))
	}
}

// BenchmarkSketchSet sketches basic windows (10 cell ids, K=800) with no
// repeated id and with the benchmark stream's shape, 5 distinct cells in
// runs, with and without recording each row's winner. It cycles through many windows: on one fixed window the branch
// predictor learns every comparison and the number means nothing.
func BenchmarkSketchSet(b *testing.B) {
	f, _ := NewFamily(800, 1)
	for _, bc := range []struct {
		name     string
		distinct int
	}{{"distinct", 10}, {"half-duplicate", 5}} {
		rng := rand.New(rand.NewSource(9))
		windows := make([][]uint64, 512)
		for w := range windows {
			for i := 0; i < 10; i++ {
				if i%(10/bc.distinct) == 0 {
					windows[w] = append(windows[w], rng.Uint64()%4096)
				} else {
					windows[w] = append(windows[w], windows[w][i-1])
				}
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = f.SketchSet(windows[i%len(windows)])
			}
		})
		b.Run(bc.name+"/winners", func(b *testing.B) {
			var w Winners
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = f.SketchWinners(windows[i%len(windows)], &w)
			}
		})
	}
}

var benchSink Sketch

func BenchmarkSimilarityK800(b *testing.B) {
	f, _ := NewFamily(800, 1)
	x := f.SketchSet([]uint64{1, 2, 3, 4, 5})
	y := f.SketchSet([]uint64{3, 4, 5, 6, 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Similarity(x, y)
	}
}

func BenchmarkCombineK800(b *testing.B) {
	f, _ := NewFamily(800, 1)
	x := f.SketchSet([]uint64{1, 2, 3, 4, 5})
	y := f.SketchSet([]uint64{3, 4, 5, 6, 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Combine(x, y)
	}
}

// TestEstimatorErrorShrinksWithK: the min-hash similarity estimator's
// standard error is ~sqrt(J(1-J)/K); quadrupling K should roughly halve
// the observed error. Averaged over many set pairs to keep flake
// probability negligible.
func TestEstimatorErrorShrinksWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	mkPair := func() (a, b []uint64, j float64) {
		shared := rng.Intn(40) + 20
		only := rng.Intn(30) + 10
		next := uint64(rng.Intn(1 << 30))
		for i := 0; i < shared; i++ {
			a = append(a, next)
			b = append(b, next)
			next++
		}
		for i := 0; i < only; i++ {
			a = append(a, next)
			b = append(b, next+1_000_000)
			next++
		}
		return a, b, float64(shared) / float64(shared+2*only)
	}
	meanAbsErr := func(k int) float64 {
		var sum float64
		const pairs = 40
		for p := 0; p < pairs; p++ {
			fam, _ := NewFamily(k, int64(1000+p))
			a, b, j := mkPair()
			est := Similarity(fam.SketchSet(a), fam.SketchSet(b))
			d := est - j
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum / pairs
	}
	e64 := meanAbsErr(64)
	e1024 := meanAbsErr(1024)
	// sqrt(1024/64) = 4: expect ~4× smaller error; require at least 2×.
	if e1024*2 > e64 {
		t.Errorf("error did not shrink with K: K=64 → %.4f, K=1024 → %.4f", e64, e1024)
	}
}
