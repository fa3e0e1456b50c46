// Package qindex implements the query-sequence index of paper Section V.C:
// a Hash-Query array HQ[K][m] holding, per hash function (row), the m query
// min-hash values sorted by value.
//
// The paper's entries are triples <value, up, down> whose links lead to the
// same query's entry in the adjacent rows (Fig. 4), and its probe walks
// them: K dependent loads per related query. Here an entry is one 64-bit
// word <prefix, owner>: the prefix is an order-preserving 32-bit cut of the
// hash value, the owner names a slot of a per-index table holding the
// query's id, length and its whole sketch as one contiguous slice — the one
// the caller handed to Build/Add, shared, never copied. What the paper
// defines is kept: the m·K entries, the related query list R_L (a query
// enters it at its first row holding the window's value), the Lemma 2
// prune, and online Add/Remove.
//
// # Layout
//
// A row is a fence over leaves. A leaf is eight entries — one 64-byte cache
// line, a fixed array so that scanning it has a constant trip count —
// ascending, its unused tail padded with all-ones words. The fence holds
// the prefix of the last entry of each leaf, so one lower bound on the
// fence names the only leaf a value's run can start in. Build packs leaves
// full out of one slab per row; Add and Remove split a leaf at eight
// entries and fold a small right neighbour in on delete.
//
// # Nominate, then verify
//
// Two different hash values can share a prefix, so a row entry only
// nominates its owner; the owner's sketch decides. A slot not yet met in
// this probe is accepted only if sketch[i] equals the window's value (the
// line the signature kernel is about to stream anyway); a slot met and kept
// is answered from the Equal bit of its signature planes, which the scratch
// already holds; a slot met and pruned from sketch[i] again. Every decision
// is therefore taken on the full 64-bit values, and Related, Pruned,
// Comparisons and EmptySearches are exactly what a row of full values
// yields, whatever the prefixes do — down to a universe of a few small
// numbers in which every prefix is zero. Entries within a row are ordered
// by the whole word, which orders an equal-prefix run by slot; that order
// is not observable, since a slot enters R_L once and callers sort it.
//
// # Ownership
//
// A published leaf is never written. Add and Remove replace the one leaf
// per row they touch with a modified copy, and before the first of them
// after Build or Clone the index copies its rows' fences and leaf-pointer
// lists (one builder-private flag: a change touches every row). Clone
// therefore copies K row headers, the slot table and the id map and shares
// everything else, and afterwards either side copies before it writes.
// Readers of an index need no synchronisation with the writer of its clone.
//
// # Probe
//
// ProbeInto (ProbeIndex, Figure 5) runs as three passes over the rows the
// mask admits: a branch-free lower bound on each fence, a branch-free count
// inside each nominated leaf, then the hits. Nothing in the first two
// depends on the previous row, so their cache misses overlap instead of
// queueing one behind another. DESIGN.md §2.1 lists the layouts and
// searches that were measured and lost, so that nobody retries them.
package qindex

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"

	"vdsms/internal/minhash"
)

// Query pairs a query id with its offline-computed sketch and its length in
// frames (used by the engine for candidate expiry, λL). The index keeps the
// Sketch slice itself; it must not be modified while subscribed.
type Query struct {
	ID     int
	Length int
	Sketch minhash.Sketch
}

// slot is one subscribed query. A zero length marks a slot vacated by
// Remove and awaiting reuse.
type slot struct {
	qid    int
	length int
	sketch minhash.Sketch
}

// leafCap entries of 8 bytes are one cache line.
const leafCap = 8

// pad fills the unused tail of a leaf. No entry equals it: owners are
// non-negative int32 slots.
const pad = ^uint64(0)

// leaf is leafCap entries, ascending, then pads. Index it; ranging over
// the array by value copies it.
type leaf [leafCap]uint64

// row is one hash function's entries: leaves in ascending order, none
// empty, and fence[j] the prefix of the last entry of leaves[j].
type row struct {
	fence  []uint32
	leaves []*leaf
}

// prefixOf is the order-preserving cut of a hash value a row keeps: the top
// 32 bits of the family's 61, and the largest prefix for anything above
// (minhash.Empty).
func prefixOf(v uint64) uint32 { return uint32(min(v>>29, math.MaxUint32)) }

// entry is the row word of value v owned by slot s.
func entry(v uint64, s int32) uint64 { return uint64(prefixOf(v))<<32 | uint64(uint32(s)) }

// newLeaf returns a leaf holding es (at most leafCap, ascending) and its
// fence key.
func newLeaf(es []uint64) (*leaf, uint32) {
	lf := new(leaf)
	return lf, lf.fill(es)
}

// fill sets the leaf to es followed by pads and returns the last entry's
// prefix, the leaf's fence key.
func (lf *leaf) fill(es []uint64) uint32 {
	n := copy(lf[:], es)
	for t := n; t < leafCap; t++ {
		lf[t] = pad
	}
	return uint32(es[n-1] >> 32)
}

// size returns the number of entries in the leaf.
func (lf *leaf) size() int {
	n := leafCap
	for lf[n-1] == pad {
		n--
	}
	return n
}

// below returns the number of the leaf's entries with a prefix under p,
// which is where a run of p starts if the leaf has one: a borrow count over
// all leafCap words, no branch.
func (lf *leaf) below(p uint32) int {
	key := uint64(p) << 32
	var n uint64
	for t := 0; t < leafCap; t++ {
		_, b := bits.Sub64(lf[t], key, 0) // lf[t] < key
		n += b
	}
	return int(n)
}

// lowerBound returns the first j with fence[j] >= p, or len(fence). The
// halving step is arithmetic on the borrow of a 64-bit subtraction
// (bits.Sub32 is not an intrinsic), so the searches of successive rows do
// not wait on each other's branches.
func lowerBound(fence []uint32, p uint32) int {
	base, n := 0, len(fence)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n >> 1
		_, lt := bits.Sub64(uint64(fence[base+half-1]), uint64(p), 0)
		base += half & -int(lt)
		n -= half
	}
	_, lt := bits.Sub64(uint64(fence[base]), uint64(p), 0)
	return base + int(lt)
}

// find returns the leaf entry e is in, or belongs in: the first whose last
// entry is not below e, else the last leaf. The row is not empty.
func (r *row) find(e uint64) int {
	last := len(r.leaves) - 1
	j := min(lowerBound(r.fence, uint32(e>>32)), last)
	for j < last && r.leaves[j][r.leaves[j].size()-1] < e { // only along a run of e's prefix
		j++
	}
	return j
}

// Index is the Hash-Query array. Row i holds one entry per live slot s,
// <prefixOf(slots[s].sketch[i]), s>, in ascending word order. Concurrent
// readers are safe; Add, Remove and Clone require external synchronisation
// among themselves.
type Index struct {
	k    int
	rows []row
	// owned records that the rows' fences and leaf lists are private to this
	// index: made by Build, or already copied since the last Clone.
	owned bool
	slots []slot
	free  []int32       // vacated slots, reused by Add
	pos   map[int]int32 // qid → slot
}

// Build constructs the index from the query sketches (BuildIndex of the
// paper, done offline). All sketches must share the same K, ids must be
// unique, and lengths positive. Equal prefixes within a row are ordered by
// position in queries, so the structure is deterministic.
func Build(queries []Query) (*Index, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("qindex: no queries")
	}
	k := len(queries[0].Sketch)
	if k == 0 {
		return nil, fmt.Errorf("qindex: empty sketch")
	}
	m := len(queries)
	x := &Index{
		k:     k,
		rows:  make([]row, k),
		owned: true,
		slots: make([]slot, m),
		pos:   make(map[int]int32, m),
	}
	for s, q := range queries {
		if err := x.check(q); err != nil {
			return nil, err
		}
		x.slots[s] = slot{qid: q.ID, length: q.Length, sketch: q.Sketch}
		x.pos[q.ID] = int32(s)
	}

	words := make([]uint64, m)
	nleaves := (m + leafCap - 1) / leafCap
	for i := range x.rows {
		for s, q := range queries {
			words[s] = entry(q.Sketch[i], int32(s))
		}
		slices.Sort(words)
		// One slab per row: an allocation per leaf costs a sixth more build
		// time, one slab for the index would outlive every row.
		slab := make([]leaf, nleaves)
		r := row{fence: make([]uint32, nleaves), leaves: make([]*leaf, nleaves)}
		for j := range slab {
			r.fence[j] = slab[j].fill(words[j*leafCap:])
			r.leaves[j] = &slab[j]
		}
		x.rows[i] = r
	}
	return x, nil
}

// check validates a query against the index it is about to join.
func (x *Index) check(q Query) error {
	if len(q.Sketch) != x.k {
		return fmt.Errorf("qindex: query %d sketch has K=%d, want %d", q.ID, len(q.Sketch), x.k)
	}
	if q.Length <= 0 {
		return fmt.Errorf("qindex: query %d has non-positive length", q.ID)
	}
	if _, dup := x.pos[q.ID]; dup {
		return fmt.Errorf("qindex: duplicate query id %d", q.ID)
	}
	return nil
}

// Clone returns an index that answers as x does and can be changed without
// x noticing, and the other way round: it copies the K row headers, the
// slot table and the id map — O(K + m), no entry — and shares every fence,
// leaf list, leaf and sketch, so neither side owns its rows afterwards.
func (x *Index) Clone() *Index {
	x.owned = false
	return &Index{
		k:     x.k,
		rows:  slices.Clone(x.rows),
		slots: slices.Clone(x.slots),
		free:  slices.Clone(x.free),
		pos:   maps.Clone(x.pos),
	}
}

// own makes the rows' fences and leaf lists private to x before the first
// change since Build or Clone — a change touches every row, so all K are
// copied at once, out of two slabs, each with room for one more leaf.
func (x *Index) own() {
	if x.owned {
		return
	}
	n := x.k
	for i := range x.rows {
		n += len(x.rows[i].leaves)
	}
	fences, lists := make([]uint32, n), make([]*leaf, n)
	off := 0
	for i := range x.rows {
		r := &x.rows[i]
		end := off + len(r.leaves)
		f, l := fences[off:end:end+1], lists[off:end:end+1]
		copy(f, r.fence)
		copy(l, r.leaves)
		r.fence, r.leaves = f, l
		off = end + 1
	}
	x.owned = true
}

// Bytes reports the memory the index itself holds: per leaf its cache line,
// fence key and pointer — 8 bytes an entry plus 1.5 when leaves are full —
// the row headers, the slot table and the id map. The sketches the slots
// point at belong to the caller and are not counted.
func (x *Index) Bytes() int {
	const (
		leafBytes = 8*leafCap + 4 + 8 // entries, fence key, pointer
		rowBytes  = 24 + 24           // fence and leaf-list headers
		slotBytes = 8 + 8 + 24        // qid, length, sketch header
		posBytes  = 24                // map[int]int32 entry at a typical load factor
	)
	leaves := 0
	for i := range x.rows {
		leaves += len(x.rows[i].leaves)
	}
	return leaves*leafBytes + x.k*rowBytes + len(x.slots)*slotBytes + len(x.free)*4 + len(x.pos)*posBytes
}

// K returns the number of hash functions (rows).
func (x *Index) K() int { return x.k }

// Len returns the number of indexed queries.
func (x *Index) Len() int { return len(x.pos) }

// SizeTriples returns the number of entries stored — m×K, the paper's
// fixed query-index memory figure (there counted in <value, up, down>
// triples).
func (x *Index) SizeTriples() int { return x.k * len(x.pos) }

// QueryIDs returns the indexed query ids in slot order.
func (x *Index) QueryIDs() []int {
	out := make([]int, 0, len(x.pos))
	for _, sl := range x.slots {
		if sl.length > 0 {
			out = append(out, sl.qid)
		}
	}
	return out
}

// SketchOf returns the stored sketch of query id (shared, read-only).
func (x *Index) SketchOf(id int) (minhash.Sketch, bool) {
	s, ok := x.pos[id]
	if !ok {
		return nil, false
	}
	return x.slots[s].sketch, true
}

// LengthOf returns the stored length of query id.
func (x *Index) LengthOf(id int) (int, bool) {
	s, ok := x.pos[id]
	if !ok {
		return 0, false
	}
	return x.slots[s].length, true
}

// Add subscribes a new query online: it takes a vacated slot (or a new
// one), and each row receives one entry. Cost per row one fence search and
// one leaf copied, after the fences and leaf lists where x does not own
// them yet.
func (x *Index) Add(q Query) error {
	if err := x.check(q); err != nil {
		return err
	}
	var s int32
	if n := len(x.free); n > 0 {
		s, x.free = x.free[n-1], x.free[:n-1]
		x.slots[s] = slot{qid: q.ID, length: q.Length, sketch: q.Sketch}
	} else {
		s = int32(len(x.slots))
		x.slots = append(x.slots, slot{qid: q.ID, length: q.Length, sketch: q.Sketch})
	}
	x.pos[q.ID] = s
	x.own()
	for i, v := range q.Sketch {
		x.rows[i].insert(entry(v, s))
	}
	return nil
}

// insert puts e into the row, which its index owns: the leaf it belongs in
// is replaced by a copy holding it, or by two when the leaf was full.
func (r *row) insert(e uint64) {
	if len(r.leaves) == 0 {
		lf, key := newLeaf([]uint64{e})
		r.leaves, r.fence = append(r.leaves, lf), append(r.fence, key)
		return
	}
	j := r.find(e)
	old := r.leaves[j]
	n := old.size()
	t := 0
	for t < n && old[t] < e {
		t++
	}
	var es [leafCap + 1]uint64
	copy(es[:t], old[:t])
	es[t] = e
	copy(es[t+1:], old[t:n])
	if n < leafCap {
		r.leaves[j], r.fence[j] = newLeaf(es[:n+1])
		return
	}
	const half = (leafCap + 1) / 2
	r.leaves[j], r.fence[j] = newLeaf(es[:half])
	right, key := newLeaf(es[half:])
	r.leaves, r.fence = slices.Insert(r.leaves, j+1, right), slices.Insert(r.fence, j+1, key)
}

// Remove unsubscribes a query online, the inverse of Add: its entry leaves
// every row and its slot is vacated.
func (x *Index) Remove(id int) error {
	s, ok := x.pos[id]
	if !ok {
		return fmt.Errorf("qindex: query id %d not subscribed", id)
	}
	x.own()
	for i, v := range x.slots[s].sketch {
		x.rows[i].remove(entry(v, s))
	}
	x.slots[s] = slot{}
	x.free = append(x.free, s)
	delete(x.pos, id)
	return nil
}

// remove takes e, which the row holds, out of it: its leaf is replaced by a
// copy without it — taking the right neighbour's entries along when both
// fit one leaf — or dropped when e was alone in it.
func (r *row) remove(e uint64) {
	j := r.find(e)
	old := r.leaves[j]
	n := old.size()
	t := 0
	for old[t] != e {
		t++
	}
	var es [leafCap]uint64
	copy(es[:t], old[:t])
	n = t + copy(es[t:], old[t+1:n])
	if n == 0 {
		r.leaves, r.fence = slices.Delete(r.leaves, j, j+1), slices.Delete(r.fence, j, j+1)
		return
	}
	if j+1 < len(r.leaves) {
		if next := r.leaves[j+1]; n+next.size() <= leafCap {
			n += copy(es[n:], next[:next.size()])
			r.leaves, r.fence = slices.Delete(r.leaves, j+1, j+2), slices.Delete(r.fence, j+1, j+2)
		}
	}
	r.leaves[j], r.fence[j] = newLeaf(es[:n])
}
