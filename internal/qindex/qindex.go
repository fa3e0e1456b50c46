// Package qindex implements the query-sequence index of paper Section V.C:
// it finds, for a basic window's sketch, the related queries R_L — those
// that hold the window's min-hash value at some row — and resolves each
// through the bit-signature kernel and the Lemma 2 prune.
//
// # Postings keyed by winning cell
//
// The paper's Hash-Query array HQ[K][m] holds, per hash function (row), the
// m query values sorted, and a probe searches each of the K rows for the
// window's value. Every row of the family is a bijection of the premixed
// cells (minhash.Family.Invert), so query q holds the window's value at row
// i exactly when the cell that wins row i for the window also wins it for
// q. The index therefore keeps the HQ relation by its preimage: each
// premixed cell maps to a posting list of ⟨slot, the K-bit set of rows the
// cell wins for that slot's query⟩. A window's ≈5 winning cells, with the
// rows each wins (minhash.Winners, named by the sketch loop), select ≈5
// posting lists; a posting whose rows meet the window's rows of that cell
// is a related query, exactly, with no value compared. DESIGN.md §2.1
// records the departure from the paper's layout.
//
// Each query enters R_L once and is resolved by one pass of
// bitsig.CompareInto over its sketch, which stops once Lemma 2 condemns it.
// Comparisons keeps the HQ probe's count: per query entering R_L, its
// equal rows plus the positions compared.
//
// A value no element hashes to (≥ p, minhash.Empty among them) has no
// cell; it is keyed by itself, which no premixed cell equals, so such
// values are indexed and found like any other.
//
// # Ownership
//
// An index is a persistent value. The postings live in a hash trie
// (trie.go) beside a second one from query id to slot, and Clone copies
// neither: it returns a header and gives both sides a fresh token. Add and
// Remove then copy, on the index they change, only what its token does not
// own — the posting lists of the query's own ≈12–50 cells and the trie
// nodes that lead to them, never anything whose size grows with the query
// count. Readers of an index need no synchronisation with the writer of its
// clone.
//
// # The Build shim
//
// Build makes an index without a family, hence without postings; it probes
// its slots with the scan kernel and answers as a keyed index would. It
// exists for callers that sketch queries without handing over their
// family, and goes when the last of them does.
package qindex

import (
	"cmp"
	"fmt"
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

// slot is one subscribed query. n is its number, the place of its marks in
// a ProbeScratch: numbers are dense, and Remove gives them back for reuse.
type slot struct {
	qid    int
	length int
	sketch minhash.Sketch
	n      int32
}

func (s *slot) key() uint64 { return uint64(s.qid) }

// postings is the posting list of one cell: slots[p] holds the cell as its
// winner in the rows rows[p·nw : (p+1)·nw].
type postings struct {
	cell  uint64
	owner *token
	slots []*slot
	rows  []uint64
}

func (p *postings) key() uint64 { return p.cell }

// freeSlot is one slot number Remove gave back, on an immutable stack that
// clones share.
type freeSlot struct {
	n    int32
	next *freeSlot
}

const (
	slotBytes     = 48 // a slot
	postingsBytes = 64 // a postings header
	freeBytes     = 16 // a freeSlot
)

func (p *postings) size() int { return postingsBytes + 8*cap(p.slots) + 8*cap(p.rows) }

// Index is the query index. Concurrent readers are safe; Add, Remove and
// Clone require external synchronisation among themselves.
type Index struct {
	k, nw int
	fam   *minhash.Family // nil: made by Build, no postings
	own   *token
	ids   trie[*slot]
	cells trie[*postings]
	// free holds the slot numbers Remove gave back; nslots numbers have been
	// handed out.
	free   *freeSlot
	nfree  int
	nslots int32
	bytes  int // slots and posting lists
}

// New builds the index of queries sketched with fam: each query's K values
// are inverted into the cells that win them, and the query joins the
// posting list of each (BuildIndex of the paper, done offline). Sketches
// must have fam's K, ids must be unique, and lengths positive.
func New(fam *minhash.Family, queries []Query) (*Index, error) {
	return build(fam, fam.K(), queries)
}

// Build is New for callers without the queries' family: the index holds
// the queries but no postings, and probes them all with the scan kernel,
// answering — Related, Pruned, Comparisons — as the keyed index does.
// queries must not be empty; their first sketch sets K.
func Build(queries []Query) (*Index, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("qindex: no queries")
	}
	k := len(queries[0].Sketch)
	if k == 0 {
		return nil, fmt.Errorf("qindex: empty sketch")
	}
	return build(nil, k, queries)
}

func build(fam *minhash.Family, k int, queries []Query) (*Index, error) {
	x := &Index{k: k, nw: (k + 63) / 64, fam: fam, own: new(token)}
	for _, q := range queries {
		if err := x.Add(q); err != nil {
			return nil, err
		}
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
	if _, dup := x.ids.get(uint64(q.ID)); dup {
		return fmt.Errorf("qindex: duplicate query id %d", q.ID)
	}
	return nil
}

// Clone returns an index that answers as x does and can be changed without
// x noticing, and the other way round. It copies nothing but the header:
// both sides get a fresh token and copy what they change from then on.
func (x *Index) Clone() *Index {
	c := *x
	x.own, c.own = new(token), new(token)
	return &c
}

// Bytes reports the memory the index itself holds: slots, posting lists,
// trie nodes and free slot numbers. The sketches the slots point at belong
// to the caller and are not counted.
func (x *Index) Bytes() int {
	return x.bytes + x.ids.bytes + x.cells.bytes + x.nfree*freeBytes
}

// K returns the number of hash functions (rows).
func (x *Index) K() int { return x.k }

// Len returns the number of indexed queries.
func (x *Index) Len() int { return x.ids.n }

// SizeTriples returns m×K, the paper's fixed query-index memory figure
// (there counted in <value, up, down> triples).
func (x *Index) SizeTriples() int { return x.k * x.ids.n }

// QueryIDs returns the indexed query ids in slot order.
func (x *Index) QueryIDs() []int {
	slots := make([]*slot, 0, x.ids.n)
	x.ids.each(func(s *slot) { slots = append(slots, s) })
	slices.SortFunc(slots, func(a, b *slot) int { return cmp.Compare(a.n, b.n) })
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.qid
	}
	return out
}

// SketchOf returns the stored sketch of query id (shared, read-only).
func (x *Index) SketchOf(id int) (minhash.Sketch, bool) {
	s, ok := x.ids.get(uint64(id))
	if !ok {
		return nil, false
	}
	return s.sketch, true
}

// LengthOf returns the stored length of query id.
func (x *Index) LengthOf(id int) (int, bool) {
	s, ok := x.ids.get(uint64(id))
	if !ok {
		return 0, false
	}
	return s.length, true
}

// Add subscribes a new query online: it takes a free slot number and joins
// the posting list of each cell that wins some row of its sketch.
func (x *Index) Add(q Query) error {
	if err := x.check(q); err != nil {
		return err
	}
	s := &slot{qid: q.ID, length: q.Length, sketch: q.Sketch}
	if f := x.free; f != nil {
		s.n, x.free, x.nfree = f.n, f.next, x.nfree-1
	} else {
		s.n, x.nslots = x.nslots, x.nslots+1
	}
	x.ids.put(x.own, s)
	x.bytes += slotBytes
	if x.fam != nil {
		var g grouping
		g.group(x.fam, q.Sketch, x.nw)
		for j, c := range g.cells {
			x.join(c, s, g.rows[j*x.nw:(j+1)*x.nw])
		}
	}
	return nil
}

// Remove unsubscribes a query online, the inverse of Add: it leaves the
// posting list of each of its cells, and its slot number is free again.
func (x *Index) Remove(id int) error {
	s, ok := x.ids.get(uint64(id))
	if !ok {
		return fmt.Errorf("qindex: query id %d not subscribed", id)
	}
	if x.fam != nil {
		var g grouping
		g.group(x.fam, s.sketch, x.nw)
		for _, c := range g.cells {
			x.leave(c, s)
		}
	}
	x.ids.del(x.own, s.key())
	x.free = &freeSlot{n: s.n, next: x.free}
	x.nfree++
	x.bytes -= slotBytes
	return nil
}

// join adds slot s, winning rows at cell c, to c's posting list: in place
// when x owns the list, else into a copy.
func (x *Index) join(c uint64, s *slot, rows []uint64) {
	p, ok := x.cells.get(c)
	switch {
	case !ok:
		p = &postings{cell: c, owner: x.own, slots: []*slot{s}, rows: slices.Clone(rows)}
		x.bytes += p.size()
		x.cells.put(x.own, p)
	case p.owner == x.own:
		before := p.size()
		p.slots = append(grow(p.slots, 1), s)
		p.rows = append(grow(p.rows, len(rows)), rows...)
		x.bytes += p.size() - before
	default:
		np := &postings{cell: c, owner: x.own,
			slots: slices.Concat(p.slots, []*slot{s}),
			rows:  slices.Concat(p.rows, rows)}
		x.bytes += np.size() - p.size()
		x.cells.put(x.own, np)
	}
}

// grow returns s with room for n more elements, growing it by a quarter
// when it has none: a posting list built in place (New, a batch, a restore)
// keeps at most that much slack where append would keep up to half.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make([]T, len(s), len(s)+max(n, len(s)/4))
	copy(g, s)
	return g
}

// leave takes slot s out of cell c's posting list, which holds it; the cell
// goes with its last posting.
func (x *Index) leave(c uint64, s *slot) {
	p, _ := x.cells.get(c)
	at := slices.Index(p.slots, s)
	switch {
	case len(p.slots) == 1:
		x.bytes -= p.size()
		x.cells.del(x.own, c)
	case p.owner == x.own:
		p.slots = slices.Delete(p.slots, at, at+1)
		p.rows = slices.Delete(p.rows, at*x.nw, (at+1)*x.nw)
	default:
		np := &postings{cell: c, owner: x.own,
			slots: slices.Concat(p.slots[:at], p.slots[at+1:]),
			rows:  slices.Concat(p.rows[:at*x.nw], p.rows[(at+1)*x.nw:])}
		x.bytes += np.size() - p.size()
		x.cells.put(x.own, np)
	}
}

// cellOf is the key of value v at row i: the premixed cell fam maps to v
// there, or v itself when no element hashes to v (v ≥ p), which no cell
// equals.
func cellOf(fam *minhash.Family, i int, v uint64) uint64 {
	if xm, ok := fam.Invert(i, v); ok {
		return xm
	}
	return v
}

// grouping splits a sketch's rows by the cell that wins them: cells in
// first-seen order, and rows[j·nw : (j+1)·nw] the row set of cells[j].
type grouping struct {
	// at is an open-addressing table from a cell to 1 + its index in
	// cells, 0 marking a free slot, kept at most half full.
	at    []int32
	cells []uint64
	rows  []uint64
}

// group fills g from sk, reusing its memory.
func (g *grouping) group(fam *minhash.Family, sk minhash.Sketch, nw int) {
	g.cells, g.rows = g.cells[:0], g.rows[:0]
	if g.at == nil {
		g.at = make([]int32, 64)
	} else {
		clear(g.at)
	}
	for i, v := range sk {
		j := g.index(cellOf(fam, i, v), nw)
		g.rows[j*nw+i/64] |= 1 << (i % 64)
	}
}

// index returns the place of cell c in cells, adding it with an empty row
// set if it is new.
func (g *grouping) index(c uint64, nw int) int {
	t := g.home(c)
	for ; g.at[t] != 0; t = (t + 1) & (len(g.at) - 1) {
		if j := int(g.at[t]) - 1; g.cells[j] == c {
			return j
		}
	}
	g.cells = append(g.cells, c)
	n := len(g.rows)
	g.rows = slices.Grow(g.rows, nw)[:n+nw]
	clear(g.rows[n:])
	if 2*len(g.cells) <= len(g.at) {
		g.at[t] = int32(len(g.cells))
		return len(g.cells) - 1
	}
	g.at = make([]int32, 2*len(g.at))
	for j, c := range g.cells {
		t := g.home(c)
		for g.at[t] != 0 {
			t = (t + 1) & (len(g.at) - 1)
		}
		g.at[t] = int32(j + 1)
	}
	return len(g.cells) - 1
}

// home is the slot a cell's probe sequence starts at (Fibonacci hashing).
func (g *grouping) home(c uint64) int {
	return int(c * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(len(g.at)))))
}
