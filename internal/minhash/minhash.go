// Package minhash implements the approximate min-wise independent hashing
// of paper Section IV. A Family of K universal hash functions
// h_i(x) = (a_i·x + b_i) mod p (p = 2⁶¹−1) maps a set of cell ids to its
// K-min-hash Sketch: the per-function minimum hash values. The fraction of
// equal positions between two sketches is an unbiased estimator of the
// Jaccard similarity of the underlying sets, and sketches of set unions
// are the element-wise minima of the operand sketches (Property 1), which
// is what makes bottom-up multi-length candidate-sequence computation work.
package minhash

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// mersennePrime is 2⁶¹−1, the modulus of the universal hash family.
const mersennePrime = (1 << 61) - 1

// Empty is the sketch value of an empty set at every position.
const Empty = ^uint64(0)

// Family is a set of K fixed, independently seeded hash functions. It is
// immutable after construction and safe for concurrent use.
type Family struct {
	a, b []uint64
	k    int
	// ainv[i] is a[i]⁻¹ mod p, computed on the first Invert.
	ainv    []uint64
	invOnce sync.Once
}

// NewFamily draws K hash functions deterministically from seed. K must be
// positive. Multipliers are drawn from [1, p−1] and offsets from [0, p−1].
func NewFamily(k int, seed int64) (*Family, error) {
	if k <= 0 {
		return nil, fmt.Errorf("minhash: K=%d must be positive", k)
	}
	f := &Family{a: make([]uint64, k), b: make([]uint64, k), k: k}
	state := uint64(seed) ^ 0x6a09e667f3bcc908
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < k; i++ {
		f.a[i] = next()%(mersennePrime-1) + 1 // in [1, p−1]
		f.b[i] = next() % mersennePrime       // in [0, p−1]
	}
	return f, nil
}

// K returns the number of hash functions.
func (f *Family) K() int { return f.k }

// premix scrambles the input with a SplitMix64 finaliser before the linear
// map. A bare 2-universal hash is a visibly biased approximation of
// min-wise independence on structured inputs (consecutive cell ids, small
// multiples); mixing first makes the family behave like the approximate
// min-wise families of Indyk / Cohen et al. that the paper builds on.
func premix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) % mersennePrime
}

// Hash evaluates the i-th function at x.
func (f *Family) Hash(i int, x uint64) uint64 {
	return mulAddMod(f.a[i], premix(x), f.b[i])
}

// Invert returns the premixed element whose i-th hash is v. Every function
// of the family is a bijection of [0, p) — a_i is a unit mod the prime p
// and premixed elements are below p — so two elements share a hash value
// at row i exactly when they are the same premixed element; ok is false
// for a v no element hashes to (v ≥ p, Empty among them).
func (f *Family) Invert(i int, v uint64) (xm uint64, ok bool) {
	if v >= mersennePrime {
		return 0, false
	}
	f.invOnce.Do(func() {
		// Montgomery's trick: one Fermat exponentiation inverts the product
		// of all K multipliers, and prefix products peel each inverse off it.
		f.ainv = make([]uint64, f.k)
		prod := uint64(1)
		for j, a := range f.a {
			f.ainv[j] = prod // a_0 ⋯ a_{j−1}
			prod = mulAddMod(prod, a, 0)
		}
		inv := powMod(prod, mersennePrime-2) // (a_0 ⋯ a_{K−1})⁻¹
		for j := f.k - 1; j >= 0; j-- {
			f.ainv[j] = mulAddMod(f.ainv[j], inv, 0)
			inv = mulAddMod(inv, f.a[j], 0)
		}
	})
	d := v - f.b[i]
	if v < f.b[i] {
		d += mersennePrime
	}
	return mulAddMod(f.ainv[i], d, 0), true
}

// powMod returns aᵉ mod p.
func powMod(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mulAddMod(r, a, 0)
		}
		a = mulAddMod(a, a, 0)
	}
	return r
}

// mulAddMod computes (a·x + b) mod 2⁶¹−1 using 128-bit intermediate
// arithmetic and Mersenne reduction.
func mulAddMod(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	// Reduce the 128-bit product mod 2⁶¹−1: value = hi·2⁶⁴ + lo.
	// 2⁶⁴ ≡ 2³ (mod 2⁶¹−1), so value ≡ hi·8 + lo. Split lo itself.
	// a, x, b < 2⁶¹, so hi < 2⁵⁸ and the sum stays below 2⁶³; one fold
	// brings it to at most p+3 and one conditional subtraction into [0, p).
	// No loop and no data-dependent branch: the K evaluations per element
	// are the sketch stage, and their operands are random.
	sum := (lo & mersennePrime) + (lo >> 61) + hi<<3&mersennePrime + hi>>58 + b
	sum = (sum & mersennePrime) + (sum >> 61)
	if sum >= mersennePrime {
		sum -= mersennePrime
	}
	return sum
}

// Sketch is a K-vector of minimum hash values. Positions of an empty
// sketch hold Empty.
type Sketch []uint64

// NewSketch returns an empty sketch for the family.
func (f *Family) NewSketch() Sketch {
	s := make(Sketch, f.k)
	for i := range s {
		s[i] = Empty
	}
	return s
}

// Add folds one element into the sketch.
func (f *Family) Add(s Sketch, x uint64) {
	if len(s) != f.k {
		panic("minhash: sketch length mismatch")
	}
	f.sketchRows(s, nil, []uint64{premix(x)})
}

// sketchRows folds the premixed elements xms into s, the K rows outermost so
// that a row's a_i and b_i stay in registers while the ≈5 elements of a
// window are hashed. When row is not nil, row[i] is set to the index in xms
// of the element that holds s[i], which must start Empty.
func (f *Family) sketchRows(s Sketch, row []uint16, xms []uint64) {
	a, b := f.a[:len(s)], f.b[:len(s)]
	for i := range s {
		ai, bi := a[i], b[i]
		best, won := s[i], 0
		for j, xm := range xms {
			if h := mulAddMod(ai, xm, bi); h < best {
				best, won = h, j
			}
		}
		s[i] = best
		if row != nil {
			row[i] = uint16(won)
		}
	}
}

// seenSlots is the size of SketchSet's duplicate filter: several times the
// distinct cells of a basic window (about 5 of 10 frames on the benchmark
// stream), small enough to live on the stack.
const seenSlots = 64

// fresh reports whether x, premixed to xm, is new to the duplicate filter
// seen, a direct-mapped table of premixed values + 1 (0 is an empty slot;
// every hash is a function of the premixed value alone): a hit is certainly
// a repeat, and two distinct ids that share a slot evict each other and are
// merely hashed again.
func fresh(seen *[seenSlots]uint64, x uint64) (xm uint64, ok bool) {
	xm = premix(x)
	slot := &seen[xm%seenSlots]
	if *slot == xm+1 {
		return xm, false
	}
	*slot = xm + 1
	return xm, true
}

// SketchSet builds the sketch of a set of elements. ids may repeat — a
// window's cell ids are a multiset, consecutive frames mostly share a cell
// — and a repeat changes nothing because min is idempotent, so each
// distinct id is hashed K times once, not once per occurrence. The
// elements are gathered on the stack, up to seenSlots at a time, and folded
// in rows-outermost; the sketch is the only allocation.
func (f *Family) SketchSet(ids []uint64) Sketch {
	s := f.NewSketch()
	var seen, buf [seenSlots]uint64
	xms := buf[:0]
	for _, x := range ids {
		if xm, ok := fresh(&seen, x); ok {
			if len(xms) == len(buf) {
				f.sketchRows(s, nil, xms)
				xms = xms[:0]
			}
			xms = append(xms, xm)
		}
	}
	f.sketchRows(s, nil, xms)
	return s
}

// MaxWinners is the most elements a Winners can tell apart in Row: more
// than a basic window can hold, whose frames core.Config bounds at 65 535.
const MaxWinners = 1 << 16

// Winners is what SketchWinners records about a set beside its sketch:
// which element holds each row's minimum. Since every row is a bijection
// (see Invert), the sketches of two sets agree at row i exactly when the
// same premixed element wins row i in both.
type Winners struct {
	// Cells are the set's premixed elements in first-seen order. A filter
	// collision can list an element twice; the first entry then wins every
	// row the element holds and the later one none.
	Cells []uint64
	// Row[i] indexes the element of Cells whose hash is the sketch's value
	// at row i. Empty when Cells outnumber MaxWinners.
	Row []uint16
}

// SketchWinners is SketchSet that also fills w, whose buffers it reuses:
// the same single loop over the rows, which keeps the index of the element
// it takes each minimum from.
func (f *Family) SketchWinners(ids []uint64, w *Winners) Sketch {
	s := f.NewSketch()
	var seen [seenSlots]uint64
	w.Cells, w.Row = w.Cells[:0], w.Row[:0]
	for _, x := range ids {
		if xm, ok := fresh(&seen, x); ok {
			w.Cells = append(w.Cells, xm)
		}
	}
	if len(w.Cells) == 0 || len(w.Cells) > MaxWinners {
		f.sketchRows(s, nil, w.Cells)
		return s
	}
	w.Row = slices.Grow(w.Row, f.k)[:f.k]
	f.sketchRows(s, w.Row, w.Cells)
	return s
}

// Clone returns an independent copy of s.
func (s Sketch) Clone() Sketch { return append(Sketch(nil), s...) }

// IsEmpty reports whether no element has been added.
func (s Sketch) IsEmpty() bool {
	for _, v := range s {
		if v != Empty {
			return false
		}
	}
	return true
}

// Combine folds src into dst position-wise (dst = min(dst, src)): the
// sketch of the union of the underlying sets (Property 1). Lengths must
// match.
func Combine(dst, src Sketch) {
	if len(dst) != len(src) {
		panic("minhash: Combine length mismatch")
	}
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// Combined returns the union sketch of a and b without mutating either.
func Combined(a, b Sketch) Sketch {
	out := a.Clone()
	Combine(out, b)
	return out
}

// Similarity estimates the Jaccard similarity of the sets underlying a and
// b as the fraction of equal positions. Two positions that are both Empty
// count as equal, so the similarity of two empty sketches is 1; callers
// should not compare empty sketches.
func Similarity(a, b Sketch) float64 {
	if len(a) != len(b) {
		panic("minhash: Similarity length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	eq := 0
	for i, v := range a {
		if v == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// CompareCounts returns the number of positions where cand equals q and
// where cand is below q — the quantities Lemma 1 (similarity) and Lemma 2
// (pruning) need when working on raw sketches.
func CompareCounts(cand, q Sketch) (equal, less int) {
	if len(cand) != len(q) {
		panic("minhash: CompareCounts length mismatch")
	}
	for i, v := range cand {
		switch {
		case v == q[i]:
			equal++
		case v < q[i]:
			less++
		}
	}
	return equal, less
}

// EqualCount returns the number of equal positions between a and b.
func EqualCount(a, b Sketch) int {
	if len(a) != len(b) {
		panic("minhash: EqualCount length mismatch")
	}
	eq := 0
	for i, v := range a {
		if v == b[i] {
			eq++
		}
	}
	return eq
}
