// Package qindex implements the query-sequence index of paper Section V.C:
// a Hash-Query array HQ[K][m] holding, per hash function (row), the m query
// min-hash values sorted by value.
//
// The paper's entries are triples <value, up, down> whose links lead to the
// same query's entry in the adjacent rows (Fig. 4), and its probe walks
// them: K dependent loads per related query. Here an entry is the pair
// <value, owner>: the owner names a slot of a per-index table holding the
// query's id, length and its whole sketch as one contiguous slice — the one
// the caller handed to Build/Add, shared, never copied. A query found in
// any row is resolved against the window in a single streaming pass over
// that slice. What the paper defines is kept: the m·K entries, the related
// query list R_L (a query enters it at its first row holding the window's
// value), the Lemma 2 prune, and online Add/Remove.
//
// Probing a basic-window sketch against the index (ProbeIndex, Figure 5)
// returns bit signatures only for the queries that share at least one
// min-hash value with the window. With many queries this replaces m full
// sketch comparisons per window by K binary searches plus work proportional
// to |R_L|.
package qindex

import (
	"cmp"
	"fmt"
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

// Index is the Hash-Query array. Row i is vals[i], ascending, with own[i]
// parallel to it: slots[own[i][j]].sketch[i] == vals[i][j], and every live
// slot appears exactly once per row. Concurrent readers are safe;
// Add/Remove require external synchronisation.
type Index struct {
	k     int
	vals  [][]uint64
	own   [][]int32
	slots []slot
	free  []int32       // vacated slots, reused by Add
	pos   map[int]int32 // qid → slot
}

// Build constructs the index from the query sketches (BuildIndex of the
// paper, done offline). All sketches must share the same K, ids must be
// unique, and lengths positive. Equal values within a row are ordered by
// query id, so the structure is deterministic.
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
		vals:  make([][]uint64, k),
		own:   make([][]int32, k),
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

	type pair struct {
		v uint64
		s int32
	}
	row := make([]pair, m)
	for i := range x.vals {
		for s, q := range queries {
			row[s] = pair{q.Sketch[i], int32(s)}
		}
		slices.SortFunc(row, func(a, b pair) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			return cmp.Compare(queries[a.s].ID, queries[b.s].ID)
		})
		vals, own := make([]uint64, m), make([]int32, m)
		for j, p := range row {
			vals[j], own[j] = p.v, p.s
		}
		x.vals[i], x.own[i] = vals, own
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

// Clone returns a copy of the index that shares only the query sketches.
// Cost O(K·m) straight memory copies — the same order as a single
// incremental Add — which makes copy-on-write churn (clone, then mutate the
// private copy while readers keep probing the original) as cheap as
// in-place mutation was.
func (x *Index) Clone() *Index {
	c := &Index{
		k:     x.k,
		vals:  make([][]uint64, x.k),
		own:   make([][]int32, x.k),
		slots: slices.Clone(x.slots),
		free:  slices.Clone(x.free),
		pos:   make(map[int]int32, len(x.pos)),
	}
	for i := range x.vals {
		c.vals[i], c.own[i] = slices.Clone(x.vals[i]), slices.Clone(x.own[i])
	}
	for id, s := range x.pos {
		c.pos[id] = s
	}
	return c
}

// Bytes estimates the memory the index itself holds: 12 bytes per
// <value, owner> entry, the slot table and the id map. The sketches the
// slots point at belong to the caller and are not counted.
func (x *Index) Bytes() int {
	const (
		entryBytes = 8 + 4      // value, owner
		slotBytes  = 8 + 8 + 24 // qid, length, sketch header
		posBytes   = 24         // map[int]int32 entry at a typical load factor
	)
	return x.k*len(x.pos)*entryBytes + len(x.slots)*slotBytes + len(x.free)*4 + len(x.pos)*posBytes
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
// one), and each row receives one entry after the last equal value. Cost K
// binary searches and K·m/2 entries moved on average.
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
	for i, v := range q.Sketch {
		p, _ := slices.BinarySearchFunc(x.vals[i], v, func(e, v uint64) int {
			if e <= v {
				return -1
			}
			return 1
		})
		x.vals[i] = slices.Insert(x.vals[i], p, v)
		x.own[i] = slices.Insert(x.own[i], p, s)
	}
	return nil
}

// Remove unsubscribes a query online, the inverse of Add: its entry leaves
// every row and its slot is vacated.
func (x *Index) Remove(id int) error {
	s, ok := x.pos[id]
	if !ok {
		return fmt.Errorf("qindex: query id %d not subscribed", id)
	}
	for i, v := range x.slots[s].sketch {
		p, _ := slices.BinarySearch(x.vals[i], v)
		for x.own[i][p] != s { // the run of equal values holds s exactly once
			p++
		}
		x.vals[i] = slices.Delete(x.vals[i], p, p+1)
		x.own[i] = slices.Delete(x.own[i], p, p+1)
	}
	x.slots[s] = slot{}
	x.free = append(x.free, s)
	delete(x.pos, id)
	return nil
}
