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
// A probe makes two passes. Gather reads the postings and ORs each meeting
// of a posting's rows with the window's rows into that query's Equal
// plane: the rows of cell c the window and q both win are rows at which
// they hold the same value, and every row is won by exactly one cell on
// each side, so the union over the window's cells is the Equal plane,
// exactly. Resolve then takes each query found into R_L once, in discovery
// order, through bitsig.LessInto, which computes only the Less plane from
// the keys of its split sketch and stops once Lemma 2 condemns it.
// Comparisons keeps the HQ probe's count: per query entering R_L, its equal
// rows plus the positions compared.
//
// A value no element hashes to (≥ p, minhash.Empty among them) has no
// cell; it is keyed by itself, which no premixed cell equals, so such
// values are indexed and found like any other.
//
// # What an index holds
//
// An index is a persistent value and the only copy of its subscription
// set. Each query lives in one slot, an Entry: its id, length, sketch —
// split for the signature kernel (bitsig.Split), which rebuilds every value
// — and any raw cell ids its caller keeps (the engine's exact audit reads
// them), with an insertion sequence number, so Queries lists the set in
// the order it was built even after removals. The slots sit in a hash trie (trie.go) from
// query id to slot, beside a second one from cell to postings, and the
// figures a reader needs of the whole set — its size, its longest query,
// the bytes it holds — are running counts, kept by Add and Remove. Clone
// copies none of it: it returns a header and gives both sides a fresh
// token. Add and Remove then copy, on the index they change, only what its
// token does not own — the slot's trie path, the posting lists of the
// query's own ≈12–50 cells and the nodes that lead to them — never
// anything whose size grows with the query count. Readers of an index need
// no synchronisation with the writer of its clone.
//
// # Without postings
//
// NewScan makes the same slot store without postings: every probe compares
// the window with every slot through the scan kernel, at K comparisons per
// query — the SketchNoIndex / BitNoIndex baseline. Build makes one without
// a family either, for callers that sketch queries without handing over
// their family; its probes answer — Related, Pruned, Comparisons — as a
// keyed index would, and it goes when the last of those callers does.
package qindex

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// Query is one subscription: an id, the query's length in frames (the
// engine's candidate expiry, λL), its offline-computed sketch and, when its
// caller keeps them, the raw cell ids of its key frames. A query given by
// its cell ids without a sketch is sketched on joining, by the index's
// family, from a copy of them. The index splits a sketch it is given into
// its own block and keeps the cell ids it is given, which must not be
// modified while subscribed.
type Query struct {
	ID      int
	Length  int
	Sketch  minhash.Sketch
	CellIDs []uint64
}

// Entry is a query as the index holds it: its sketch split for the
// signature kernel, whose At reads any value back exactly.
type Entry struct {
	ID      int
	Length  int
	Sketch  bitsig.Split
	CellIDs []uint64
}

// slot is one subscribed query. seq is its place in insertion order; n is
// its number, the place of its marks in a ProbeScratch: numbers are dense,
// and Remove gives them back for reuse.
type slot struct {
	Entry
	seq uint64
	n   int32
}

func (s *slot) key() uint64 { return uint64(s.ID) }

// lengthCount is how many subscribed queries have one length.
type lengthCount struct{ length, n int }

func (c *lengthCount) key() uint64 { return uint64(c.length) }

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
	slotBytes     = 104 // a slot
	postingsBytes = 64  // a postings header
	freeBytes     = 16  // a freeSlot
	lengthBytes   = 16  // a lengthCount
)

func (p *postings) size() int { return postingsBytes + 8*cap(p.slots) + 8*cap(p.rows) }

// Index is the query index. Concurrent readers are safe; Add, Remove,
// Clone and With require external synchronisation among themselves.
type Index struct {
	k, nw int
	// fam sketches queries given by their cell ids and keys the postings;
	// nil for an index made by Build.
	fam *minhash.Family
	// keyed is set when the index keeps postings (New); a probe of one
	// without them (NewScan, Build) scans every slot.
	keyed bool
	own   *token
	ids   trie[*slot]
	cells trie[*postings]
	// lengths is the multiset of the queries' lengths, longest its largest.
	lengths trie[*lengthCount]
	longest int
	// seq is the insertion number of the next query to join; free holds
	// the slot numbers Remove gave back; nslots numbers have been handed out.
	seq    uint64
	free   *freeSlot
	nfree  int
	nslots int32
	bytes  int // slots and posting lists
	held   int // the sketches and cell ids the slots carry
}

// New builds the index of queries sketched with fam: each query's K values
// are inverted into the cells that win them, and the query joins the
// posting list of each (BuildIndex of the paper, done offline). It refuses
// the queries Check refuses.
func New(fam *minhash.Family, queries []Query) (*Index, error) {
	return build(fam, fam.K(), true, queries)
}

// NewScan is New without postings: the index holds the same slots, and a
// probe compares the window with every one of them in full, at K
// comparisons each (the SketchNoIndex / BitNoIndex baseline). Queries with
// no equal position are left out of the result, as the keyed probe leaves
// them out, and queries failing Lemma 2 are reported as pruned.
func NewScan(fam *minhash.Family, queries []Query) (*Index, error) {
	return build(fam, fam.K(), false, queries)
}

// Build is NewScan for callers without the queries' family, whose probes
// answer — Related, Pruned, Comparisons — as the keyed index does. queries
// must not be empty; their first sketch sets K.
func Build(queries []Query) (*Index, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("qindex: no queries")
	}
	k := len(queries[0].Sketch)
	if k == 0 {
		return nil, fmt.Errorf("qindex: empty sketch")
	}
	return build(nil, k, false, queries)
}

func build(fam *minhash.Family, k int, keyed bool, queries []Query) (*Index, error) {
	x := &Index{k: k, nw: (k + 63) / 64, fam: fam, keyed: keyed, own: new(token)}
	if err := x.Check(queries); err != nil {
		return nil, err
	}
	x.addBatch(queries)
	return x, nil
}

// Check reports why the queries of batch could not join x together — a
// query without frames, without a sketch or the cell ids to make one (an
// index made by Build has no family to make it with), with a sketch of
// other than K values, or with an id x holds or the batch repeats — and
// nil when they can. It is the one validation of a subscription: New, Add
// and With refuse what it refuses, before they change anything.
func (x *Index) Check(batch []Query) error {
	var seen map[int]bool
	if len(batch) > 1 {
		seen = make(map[int]bool, len(batch))
	}
	for _, q := range batch {
		switch _, held := x.ids.get(uint64(q.ID)); {
		case q.Length <= 0:
			return fmt.Errorf("qindex: query %d has no frames", q.ID)
		case q.Sketch == nil && (x.fam == nil || q.CellIDs == nil):
			return fmt.Errorf("qindex: query %d has no sketch", q.ID)
		case q.Sketch != nil && len(q.Sketch) != x.k:
			return fmt.Errorf("qindex: query %d sketch has K=%d, want %d", q.ID, len(q.Sketch), x.k)
		case held:
			return fmt.Errorf("qindex: query id %d already subscribed", q.ID)
		case seen[q.ID]:
			return fmt.Errorf("qindex: query id %d duplicated in batch", q.ID)
		}
		if seen != nil {
			seen[q.ID] = true
		}
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

// With returns a clone of x that holds batch as well, joined in batch
// order, and leaves x as it is. A batch Check refuses is refused whole,
// before anything is cloned. The queries are derived on every core
// (addBatch); the clone is the same whatever their number.
func (x *Index) With(batch []Query) (*Index, error) {
	if err := x.Check(batch); err != nil {
		return nil, err
	}
	c := x.Clone()
	c.addBatch(batch)
	return c, nil
}

// Bytes reports the memory the index itself holds: slots, posting lists,
// length counts, trie nodes and free slot numbers. The sketches and cell
// ids the slots carry belong to the callers and are HeldBytes.
func (x *Index) Bytes() int {
	return x.bytes + x.ids.bytes + x.cells.bytes + x.lengths.bytes +
		x.lengths.n*lengthBytes + x.nfree*freeBytes
}

// HeldBytes reports the memory of the split sketches and the cell ids the
// slots carry: 8 bytes a sketch position, as the values themselves took.
func (x *Index) HeldBytes() int { return x.held }

// K returns the number of hash functions (rows).
func (x *Index) K() int { return x.k }

// Len returns the number of indexed queries.
func (x *Index) Len() int { return x.ids.n }

// Longest returns the length of the longest indexed query, 0 when there is
// none.
func (x *Index) Longest() int { return x.longest }

// SizeTriples returns m×K, the paper's fixed query-index memory figure
// (there counted in <value, up, down> triples).
func (x *Index) SizeTriples() int { return x.k * x.ids.n }

// Lookup returns query id as the index holds it (shared, read-only), or
// nil when it is not subscribed.
func (x *Index) Lookup(id int) *Entry {
	if s, ok := x.ids.get(uint64(id)); ok {
		return &s.Entry
	}
	return nil
}

// QueryIDs appends the indexed query ids to dst, ascending.
func (x *Index) QueryIDs(dst []int) []int {
	n := len(dst)
	x.ids.each(func(s *slot) { dst = append(dst, s.ID) })
	slices.Sort(dst[n:])
	return dst
}

// Queries returns the indexed queries in the order they joined. A query
// held by its cell ids comes back with them and no sketch, which its cells
// give again under the index's family; only one without cells has its
// sketch rebuilt from the split.
func (x *Index) Queries() []Query {
	slots := make([]*slot, 0, x.ids.n)
	x.ids.each(func(s *slot) { slots = append(slots, s) })
	slices.SortFunc(slots, func(a, b *slot) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]Query, len(slots))
	for i, s := range slots {
		out[i] = Query{ID: s.ID, Length: s.Length, CellIDs: s.CellIDs}
		if s.CellIDs == nil {
			out[i].Sketch = s.Sketch.Sketch()
		}
	}
	return out
}

// Add subscribes a new query online: it takes a free slot number and joins
// the posting list of each cell that wins some row of its sketch. It is a
// batch of one and starts no goroutine.
func (x *Index) Add(q Query) error {
	if err := x.Check([]Query{q}); err != nil {
		return err
	}
	x.addBatch([]Query{q})
	return nil
}

// Remove unsubscribes a query online, the inverse of Add: it leaves the
// posting list of each of its cells, and its slot number is free again.
func (x *Index) Remove(id int) error {
	s, ok := x.ids.get(uint64(id))
	if !ok {
		return fmt.Errorf("qindex: query id %d not subscribed", id)
	}
	if x.keyed {
		var g grouping
		g.group(x.fam, s.Sketch.Len(), s.Sketch.At, x.nw)
		for _, c := range g.cells {
			x.leave(c, s)
		}
	}
	x.ids.del(x.own, s.key())
	x.count(s.Length, -1)
	x.free = &freeSlot{n: s.n, next: x.free}
	x.nfree++
	x.bytes -= slotBytes
	x.held -= s.Sketch.Bytes() + 8*len(s.CellIDs)
	return nil
}

// count adds d to the number of queries of length l and keeps longest. The
// largest length is looked for among the lengths, never the queries, and
// only when the last query of the longest one leaves.
func (x *Index) count(l, d int) {
	if c, ok := x.lengths.get(uint64(l)); ok {
		d += c.n
	}
	if d > 0 {
		x.lengths.put(x.own, &lengthCount{length: l, n: d})
		x.longest = max(x.longest, l)
		return
	}
	x.lengths.del(x.own, uint64(l))
	if l == x.longest {
		x.longest = 0
		x.lengths.each(func(c *lengthCount) { x.longest = max(x.longest, c.length) })
	}
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

// group fills g from the k values of a sketch, value(i) the one at row i,
// reusing its memory.
func (g *grouping) group(fam *minhash.Family, k int, value func(int) uint64, nw int) {
	g.cells, g.rows = g.cells[:0], g.rows[:0]
	if g.at == nil {
		g.at = make([]int32, 64)
	} else {
		clear(g.at)
	}
	for i := range k {
		j := g.index(cellOf(fam, i, value(i)), nw)
		g.rows[j*nw+i/64] |= 1 << (i % 64)
	}
}

// winners fills g from w, which names the winner of every row, reusing its
// memory: w's cells in their order, less those left without a row (a cell
// a filter collision listed twice).
func (g *grouping) winners(w *minhash.Winners, nw int) {
	n := len(w.Cells) * nw
	g.rows = slices.Grow(g.rows[:0], n)[:n]
	rowSets(g.rows, w.Row)
	g.cells = slices.Grow(g.cells[:0], len(w.Cells))
	for j, c := range w.Cells {
		if rows := g.rows[j*nw : (j+1)*nw]; slices.ContainsFunc(rows, func(r uint64) bool { return r != 0 }) {
			copy(g.rows[len(g.cells)*nw:], rows)
			g.cells = append(g.cells, c)
		}
	}
	g.rows = g.rows[:len(g.cells)*nw]
}

// rowSets sets rows[j·nw : (j+1)·nw], for each j below len(rows)/nw, to the
// set of rows i with row[i] == j, nw = ⌈len(row)/64⌉ words a set:
// rowSetsAVX512 where the CPU has it (rowsets_amd64.go), else rowSetsGo.
var rowSets = rowSetsGo

// rowSetsGo is rowSets by a scatter of every row into its cell's set, and
// the oracle of its vector twin. Every row[i] must be below len(rows)/nw.
func rowSetsGo(rows []uint64, row []uint16) {
	nw := (len(row) + 63) / 64
	clear(rows)
	for i, j := range row {
		rows[int(j)*nw+i/64] |= 1 << (i % 64)
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
