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
// One kernel computes the planes, over a sketch split for it (Split): the
// high 32-bit word of each value, sign-flipped, is its key, a hot array of
// K that a compare reads at half the bytes of the values, and the low words
// sit apart, cold. Keys that differ decide the relation, since a key is
// monotone in its value. Keys that tie are Equal where the caller's Equal
// plane says so, and otherwise are resolved from the low words — rare,
// since two minima seldom share their high words — so every relation is
// exact. The kernel takes the whole K in one call, eight positions a
// compare on amd64 CPUs with AVX2 (keys_amd64.s) and a Go twin elsewhere,
// and yields each 64-position word's Less and key-tie masks. LessInto takes
// the Equal plane from its caller — the query index knows it exactly from
// its postings — and CompareInto, for callers that know nothing, resolves
// every tie, so that Greater is neither Less nor a tie, plus the ties the
// low words make Greater.
package bitsig

import (
	"fmt"
	"math/bits"

	"vdsms/internal/cpu"
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

// flip is the sign bit of a key: stored flipped, keys compare as signed
// 32-bit integers in the order of their values, so the vector compare
// needs no XOR.
const flip = 1 << 31

// Split is a sketch held for the signature kernel: each value cut into its
// high 32-bit word (its key) and its low word, both stored sign-flipped.
// The keys are hot, the only words a compare reads unless two of them tie;
// the low words are cold. Every value is rebuilt exactly from the two,
// Empty and values at or past 2⁶¹ included, and the split takes the 8 bytes
// a position the value did, in one block. Both arrays run on, as zeros, to
// a multiple of 8 positions, the kernel's step. The zero Split holds no
// sketch.
type Split struct {
	keys []uint32 // K keys, then the padding; its cap is the whole block
	low  []uint32 // K low words; the padding lies past len, within cap
}

// SplitOf returns sk split for the kernel.
func SplitOf(sk minhash.Sketch) Split {
	var s Split
	s.Load(sk)
	return s
}

// MakeSplit returns a split of k positions whose values are yet to come:
// its block, which Load then fills in place.
func MakeSplit(k int) Split {
	pad := (k + 7) &^ 7
	buf := make([]uint32, 2*pad)
	return Split{keys: buf[:pad], low: buf[pad : pad+k : 2*pad]}
}

// Load makes s the split of sk, reusing its block when it is large enough.
func (s *Split) Load(sk minhash.Sketch) {
	k, pad := len(sk), (len(sk)+7)&^7
	buf := s.keys[:cap(s.keys)]
	if len(buf) < 2*pad {
		buf = make([]uint32, 2*pad)
	}
	s.keys, s.low = buf[:pad], buf[pad:pad+k:2*pad] // keys' cap spans the block
	for r, v := range sk {
		s.keys[r] = uint32(v>>32) ^ flip
		s.low[r] = uint32(v) ^ flip
	}
	clear(s.keys[k:])
	clear(s.low[k:pad])
}

// Len returns K, the number of positions.
func (s Split) Len() int { return len(s.low) }

// At returns the value at position r: the accessor every reader of a split
// sketch's values goes through.
func (s Split) At(r int) uint64 { return uint64(s.keys[r]^flip)<<32 | uint64(s.low[r]^flip) }

// Sketch returns the values, rebuilt.
func (s Split) Sketch() minhash.Sketch {
	sk := make(minhash.Sketch, s.Len())
	for r := range sk {
		sk[r] = s.At(r)
	}
	return sk
}

// Bytes returns the memory the split holds.
func (s Split) Bytes() int { return 4 * (len(s.keys) + cap(s.low)) }

// CompareCounts returns the number of positions at which cand equals s
// and at which it is below s: the Sketch method's test of a candidate.
func (s Split) CompareCounts(cand minhash.Sketch) (equal, less int) {
	if len(cand) != s.Len() {
		panic("bitsig: CompareCounts length mismatch")
	}
	for r, v := range cand {
		switch q := s.At(r); {
		case v == q:
			equal++
		case v < q:
			less++
		}
	}
	return equal, less
}

// FromSketches builds the signature of a candidate sketch against a query
// sketch (Definition 3). Both sketches must have length K.
func FromSketches(cand, query minhash.Sketch) *Signature {
	if len(cand) != len(query) {
		panic("bitsig: sketch length mismatch")
	}
	s := New(len(cand))
	CompareInto(s.Lo, s.Hi, SplitOf(cand), SplitOf(query), len(cand))
	return s
}

// CompareInto writes the signature of cand against query into the Lo and
// Hi planes (each at least ⌈K/64⌉ words), 64 positions per word, and
// returns the Less count and the number of positions compared. One kernel
// call yields both planes: Less where cand's key is below query's, and
// every key tie resolved from the low words into Less, Equal or Greater.
//
// limit is Lemma 2's early exit: the kernel stops after the first word at
// which less exceeds it, leaving the later words unwritten, so a caller that
// gets less > limit holds a prunable pair and must not read the planes.
// Pass limit = K (never exceeded) for the complete signature.
func CompareInto(lo, hi []uint64, cand, query Split, limit int) (less, compared int) {
	return planes(keyWords, lo, hi, nil, cand, query, limit)
}

// LessInto is CompareInto for a caller that already knows the Equal plane:
// eq (⌈K/64⌉ words, no bit at or past K) marks the positions at which cand
// equals query, so a key tie there is Equal with no low word read, and
// lo = Less | eq, hi = Less. It stops where CompareInto stops and returns
// what CompareInto returns.
func LessInto(lo, hi, eq []uint64, cand, query Split, limit int) (less, compared int) {
	return planes(keyWords, lo, hi, eq[:words(cand.Len())], cand, query, limit)
}

// kernel is the form of keyWords and of each of its twins.
type kernel func(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int)

// planes is the signature kernel over the whole K. kw runs the words until
// Lemma 2 stops it or it meets a key tie that eq (nil for none) does not
// explain. Such a word is finished here: kw run over the word's low words
// decides its ties, and then goes on with the keys from the next word. A
// tie stops it only where a cand value shares its high word with the
// query's but is not Equal, so LessInto on the index's postings resolves a
// pair in one call.
func planes(kw kernel, lo, hi, eq []uint64, cand, query Split, limit int) (less, compared int) {
	k := cand.Len()
	if query.Len() != k {
		panic("bitsig: sketch length mismatch")
	}
	nw := words(k)
	lo, hi = lo[:nw], hi[:nw]
	w := 0
	for w < nw && less <= limit {
		var done int
		done, less = kw(cand.keys[64*w:], query.keys[64*w:], k-64*w, tail(eq, w), lo[w:], hi[w:], less, limit)
		if w += done; w == nw || less > limit {
			break
		}
		// Word w holds a tie eq does not explain: hi[w] is its Less mask
		// and lo[w] its key ties. Over the low words, with no Equal plane
		// and no limit, the kernel leaves hi[w] their Less mask and lo[w]
		// that mask or their ties, which are where the values are Equal.
		lt, e := hi[w], uint64(0)
		if eq != nil {
			e = eq[w]
		}
		ties := lo[w] &^ e
		kw(cand.low[64*w:cap(cand.low)], query.low[64*w:cap(query.low)], min(64, k-64*w), nil, lo[w:w+1], hi[w:w+1], 0, 64)
		lt |= ties & hi[w]
		e |= ties & (lo[w] &^ hi[w])
		lo[w], hi[w] = lt|e, lt
		less += bits.OnesCount64(lt)
		w++
	}
	return less, min(64*w, k)
}

// tail is eq from word w on, nil for a nil eq.
func tail(eq []uint64, w int) []uint64 {
	if eq == nil {
		return nil
	}
	return eq[w:]
}

// keyWords compares the keys wk and qk at the first k positions (both
// padded to a multiple of 8), 64 positions a word. A word whose key ties all
// lie in eq (empty for none) is written: hi = its Less mask lt, lo = lt | eq,
// and less grows by lt's count. The kernel stops after the first word that
// takes less past limit, and before a word with a tie outside eq, which it
// leaves as hi = lt, lo = the ties. It returns the words written and less.
func keyWords(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int) {
	if cpu.AVX2 {
		return keyWordsAVX2(wk, qk, k, eq, lo, hi, less, limit)
	}
	return keyWordsGo(wk, qk, k, eq, lo, hi, less, limit)
}

// keyWordsGo is keyWords in Go, the oracle of its vector twin.
func keyWordsGo(wk, qk []uint32, k int, eq, lo, hi []uint64, less, limit int) (done, total int) {
	for w := 0; 64*w < k; w++ {
		n := min(64, k-64*w)
		c, q := wk[64*w:64*w+n], qk[64*w:64*w+n]
		var lt, tie uint64
		for j := n - 1; j >= 0; j-- {
			lt, tie = lt<<1, tie<<1
			if int32(c[j]) < int32(q[j]) {
				lt |= 1
			} else if c[j] == q[j] {
				tie |= 1
			}
		}
		var e uint64
		if len(eq) > 0 {
			e = eq[w]
		}
		if tie&^e != 0 {
			lo[w], hi[w] = tie, lt
			return w, less
		}
		lo[w], hi[w] = lt|e, lt
		if less += bits.OnesCount64(lt); less > limit {
			return w + 1, less
		}
	}
	return words(k), less
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
