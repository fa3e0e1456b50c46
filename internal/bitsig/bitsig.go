// Package bitsig implements the bit vector signature of paper Section V.
// A Signature encodes, for each of the K hash positions, the relation of a
// candidate-sequence sketch value to a query sketch value:
//
//	'>' (Greater) — candidate min-hash above the query's,
//	'=' (Equal)   — minima agree,
//	'<' (Less)    — candidate min-hash below the query's.
//
// The paper lays the three states out as 2-bit codes 00/01/11 in one 2K-bit
// vector so that combining two candidate sequences is a bitwise OR
// (min-combination of sketches maps Greater<Equal<Less onto the OR
// lattice). We store the same information as two K-bit planes:
//
//	lo bit r set ⇔ relation is Equal or Less (the paper's low-order bit),
//	hi bit r set ⇔ relation is Less          (the paper's high-order bit).
//
// OR-ing the planes is exactly the paper's 2K-bit OR; memory is the same
// 2K bits. Lemma 1 becomes sim = (popcount(lo) − popcount(hi)) / K and the
// Lemma 2 prune test becomes popcount(hi) > K(1−δ).
//
// (The lemma in the paper is stated over "even/odd positions" of the
// interleaved layout; taken literally with '='→01 it does not hold, but its
// own proof fixes the intent: n0 = #Greater, n1 = #Less, sim = (K−n0−n1)/K.
// The plane representation implements that proof directly.)
//
// One kernel computes the planes: the Less mask of up to 64 positions, an
// AVX2 routine on amd64 CPUs that have it (lessmask_amd64.s) and a Go loop
// elsewhere. LessInto takes the Equal plane from its caller — the query
// index knows it exactly from its postings — and runs the kernel once per
// word; CompareInto, for callers that know nothing, runs it a second time
// with the operands swapped to find Greater.
package bitsig

import (
	"fmt"
	"math/bits"

	"vdsms/internal/minhash"
)

// Relation is the per-position comparison outcome.
type Relation uint8

const (
	// Greater: candidate sketch value > query sketch value ('>', code 00).
	Greater Relation = iota
	// Equal: values agree ('=', code 01).
	Equal
	// Less: candidate sketch value < query sketch value ('<', code 11).
	Less
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case Greater:
		return ">"
	case Equal:
		return "="
	case Less:
		return "<"
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Compare returns the relation of a candidate value to a query value.
func Compare(cand, query uint64) Relation {
	switch {
	case cand > query:
		return Greater
	case cand == query:
		return Equal
	default:
		return Less
	}
}

// Signature is a 2K-bit relation vector between one candidate sequence and
// one query, stored as two K-bit planes.
type Signature struct {
	K  int
	Lo []uint64 // bit r: Equal or Less at position r
	Hi []uint64 // bit r: Less at position r
}

// words returns the number of 64-bit words per plane for k positions.
func words(k int) int { return (k + 63) / 64 }

// New returns an all-Greater signature for K positions (the identity of the
// OR combination).
func New(k int) *Signature {
	if k <= 0 {
		panic(fmt.Sprintf("bitsig: K=%d must be positive", k))
	}
	n := words(k)
	buf := make([]uint64, 2*n) // both planes in one block
	return &Signature{K: k, Lo: buf[:n:n], Hi: buf[n:]}
}

// NewBlock returns n all-Greater signatures for K positions that share two
// allocations, one of headers and one of planes — for callers that create
// and drop signatures a set at a time.
func NewBlock(k, n int) []Signature {
	sigs := make([]Signature, n)
	View(sigs, k, make([]uint64, 2*words(k)*n))
	return sigs
}

// View points sigs[i] at the i-th plane pair of buf: Lo then Hi, ⌈K/64⌉
// words each, pairs back to back.
func View(sigs []Signature, k int, buf []uint64) {
	n := words(k)
	for i := range sigs {
		p := buf[2*n*i : 2*n*(i+1) : 2*n*(i+1)]
		sigs[i] = Signature{K: k, Lo: p[:n:n], Hi: p[n:]}
	}
}

// FromSketches builds the signature of a candidate sketch against a query
// sketch (Definition 3). Both sketches must have length K.
func FromSketches(cand, query minhash.Sketch) *Signature {
	s := New(len(cand))
	CompareInto(s.Lo, s.Hi, cand, query, len(cand))
	return s
}

// CompareInto writes the signature of cand against query into the Lo and
// Hi planes (each at least ⌈K/64⌉ words), 64 positions per word, with no
// branch per position: Less is lessMask(cand, query) and Greater the same
// kernel with the operands swapped. It returns the Less count and the
// number of positions compared.
//
// limit is Lemma 2's early exit: the kernel stops after the first word at
// which less exceeds it, leaving the later words unwritten, so a caller that
// gets less > limit holds a prunable pair and must not read the planes.
// Pass limit = K (never exceeded) for the complete signature.
func CompareInto(lo, hi []uint64, cand, query minhash.Sketch, limit int) (less, compared int) {
	if len(cand) != len(query) {
		panic("bitsig: sketch length mismatch")
	}
	for w := 0; compared < len(cand) && less <= limit; w++ {
		n := min(64, len(cand)-compared)
		c, q := cand[compared:compared+n], query[compared:compared+n]
		lt, gt := lessMask(c, q), lessMask(q, c)
		// Equal-or-Less is not-Greater, within the word's valid positions.
		lo[w] = ^gt & (^uint64(0) >> (64 - uint(n)))
		hi[w] = lt
		less += bits.OnesCount64(lt)
		compared += n
	}
	return less, compared
}

// LessInto is CompareInto for a caller that already knows the Equal plane:
// eq (⌈K/64⌉ words, no bit at or past K) marks the positions at which cand
// equals query, so only Less is computed, and lo = Less | eq, hi = Less.
// It stops where CompareInto stops and returns what CompareInto returns.
func LessInto(lo, hi, eq []uint64, cand, query minhash.Sketch, limit int) (less, compared int) {
	if len(cand) != len(query) {
		panic("bitsig: sketch length mismatch")
	}
	for w := 0; compared < len(cand) && less <= limit; w++ {
		n := min(64, len(cand)-compared)
		lt := lessMask(cand[compared:compared+n], query[compared:compared+n])
		lo[w] = lt | eq[w]
		hi[w] = lt
		less += bits.OnesCount64(lt)
		compared += n
	}
	return less, compared
}

// lessMaskVec is lessMask for a multiple of 4 positions at vector width,
// set at start-up on CPUs that have it (lessmask_amd64.go), nil elsewhere.
var lessMaskVec func(c, q []uint64) uint64

// lessMask is the signature kernel: for up to 64 positions, the bit mask of
// c[j] < q[j], unsigned. q must be at least as long as c.
func lessMask(c, q []uint64) uint64 {
	if len(c)%4 == 0 && lessMaskVec != nil {
		return lessMaskVec(c, q[:len(c)])
	}
	return lessMaskGo(c, q)
}

// lessMaskGo is lessMask in Go: each position's bit is the borrow of one
// subtraction, shifted into the mask by an add-with-carry (walking down from
// the top position, so that position j lands on bit j).
func lessMaskGo(c, q []uint64) (lt uint64) {
	q = q[:len(c)]
	for j := len(c) - 1; j >= 0; j-- {
		_, below := bits.Sub64(c[j], q[j], 0)
		lt, _ = bits.Add64(lt, lt, below)
	}
	return lt
}

// Set records the relation at position r. Positions start as Greater; Set
// with Greater clears the position's bits.
func (s *Signature) Set(r int, rel Relation) {
	if r < 0 || r >= s.K {
		panic(fmt.Sprintf("bitsig: position %d out of [0,%d)", r, s.K))
	}
	w, m := r/64, uint64(1)<<(r%64)
	switch rel {
	case Greater:
		s.Lo[w] &^= m
		s.Hi[w] &^= m
	case Equal:
		s.Lo[w] |= m
		s.Hi[w] &^= m
	case Less:
		s.Lo[w] |= m
		s.Hi[w] |= m
	}
}

// At returns the relation at position r.
func (s *Signature) At(r int) Relation {
	if r < 0 || r >= s.K {
		panic(fmt.Sprintf("bitsig: position %d out of [0,%d)", r, s.K))
	}
	w, m := r/64, uint64(1)<<(r%64)
	switch {
	case s.Hi[w]&m != 0:
		return Less
	case s.Lo[w]&m != 0:
		return Equal
	default:
		return Greater
	}
}

// Or folds other into s position-wise: the signature of the min-combined
// candidate sketch against the same query (paper Section V.A). Both
// signatures must have the same K.
func (s *Signature) Or(other *Signature) {
	if s.K != other.K {
		panic("bitsig: Or K mismatch")
	}
	for i := range s.Lo {
		s.Lo[i] |= other.Lo[i]
		s.Hi[i] |= other.Hi[i]
	}
}

// Clone returns an independent copy.
func (s *Signature) Clone() *Signature {
	c := New(s.K)
	copy(c.Lo, s.Lo)
	copy(c.Hi, s.Hi)
	return c
}

// Counts returns the number of Greater, Equal and Less positions.
func (s *Signature) Counts() (greater, equal, less int) {
	var lo, hi int
	for i := range s.Lo {
		lo += bits.OnesCount64(s.Lo[i])
		hi += bits.OnesCount64(s.Hi[i])
	}
	return s.K - lo, lo - hi, hi
}

// LessCount returns the number of Less positions (the paper's N_s, "number
// of 1 on the odd positions").
func (s *Signature) LessCount() int {
	var hi int
	for i := range s.Hi {
		hi += bits.OnesCount64(s.Hi[i])
	}
	return hi
}

// Similarity evaluates Lemma 1: the estimated Jaccard similarity is the
// fraction of Equal positions, sim = (K − n> − n<)/K.
func (s *Signature) Similarity() float64 {
	_, eq, _ := s.Counts()
	return float64(eq) / float64(s.K)
}

// Prunable evaluates Lemma 2: once the number of Less positions exceeds
// K(1−δ) the candidate (and, by monotonicity of OR, every extension of it)
// can never reach similarity δ against this query.
func (s *Signature) Prunable(delta float64) bool {
	return float64(s.LessCount()) > float64(s.K)*(1-delta)
}

// SizeBits returns the information size of the signature: 2K bits, the
// figure the paper's memory accounting uses.
func (s *Signature) SizeBits() int { return 2 * s.K }
