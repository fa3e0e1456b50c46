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
	f.addMixed(s, premix(x))
}

// addMixed folds the element whose premixed value is xm into s.
func (f *Family) addMixed(s Sketch, xm uint64) {
	for i := 0; i < f.k; i++ {
		s[i] = min(s[i], mulAddMod(f.a[i], xm, f.b[i]))
	}
}

// seenSlots is the size of SketchSet's duplicate filter: several times the
// distinct cells of a basic window (about 5 of 10 frames on the benchmark
// stream), small enough to live on the stack.
const seenSlots = 64

// SketchSet builds the sketch of a set of elements. ids may repeat — a
// window's cell ids are a multiset, consecutive frames mostly share a cell
// — and a repeat changes nothing because min is idempotent, so each
// distinct id is hashed K times once, not once per occurrence. The filter
// is a direct-mapped table of premixed values (every hash is a function of
// the premixed value alone): a hit is certainly a repeat; two distinct ids
// that share a slot evict each other and are merely hashed again. The
// sketch is the only allocation.
func (f *Family) SketchSet(ids []uint64) Sketch {
	s := f.NewSketch()
	var seen [seenSlots]uint64 // premixed value + 1; 0 is an empty slot
	for _, x := range ids {
		xm := premix(x)
		if slot := &seen[xm%seenSlots]; *slot != xm+1 {
			*slot = xm + 1
			f.addMixed(s, xm)
		}
	}
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
