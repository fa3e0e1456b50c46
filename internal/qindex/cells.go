package qindex

import (
	"math/bits"

	"vdsms/internal/minhash"
)

// The exact pre-filter. Every row of the hash family is a bijection of the
// premixed elements (minhash.Family.Invert), so a query holds the window's
// value at row i exactly when the premixed cell that wins row i for the
// window is the one that wins it for the query. An index that tracks cells
// keeps, per premixed cell, the set of rows in which it is some live
// query's argmin; a window's mask is then, row by row, one bit of the set
// of that row's winning cell — the rows whose equal search finds an entry,
// no more and no fewer, for a handful of table lookups.

// noCell marks a free slot: premixed elements are below 2⁶¹−1.
const noCell = ^uint64(0)

// minCellSlots is the smallest table.
const minCellSlots = 16

// cellRows maps premixed cells to K-bit row sets in one open-addressing
// table with linear probing: keys[t] is the cell in slot t and
// sets[t·nw : (t+1)·nw] its rows, followed by nw zero words that stand for
// every absent cell. A cell is present exactly while its set is not empty —
// Remove deletes it by backward shift, so there are neither tombstones nor
// dead keys — and the table doubles above three quarters full and halves
// below one eighth.
type cellRows struct {
	fam   *minhash.Family
	nw    int
	shift uint // 64 − log₂ len(keys)
	n     int  // cells present
	keys  []uint64
	sets  []uint64
}

func newCellRows(fam *minhash.Family, nw int) *cellRows {
	c := &cellRows{fam: fam, nw: nw}
	c.alloc(minCellSlots)
	return c
}

// alloc gives c an empty table of slots (a power of two) slots.
func (c *cellRows) alloc(slots int) {
	c.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	c.keys = make([]uint64, slots)
	for t := range c.keys {
		c.keys[t] = noCell
	}
	c.sets = make([]uint64, (slots+1)*c.nw)
	c.n = 0
}

// home is the slot a cell's probe sequence starts at (Fibonacci hashing).
func (c *cellRows) home(xm uint64) int { return int(xm * 0x9e3779b97f4a7c15 >> c.shift) }

// find returns the slot holding xm, or the free slot that ends its probe
// sequence.
func (c *cellRows) find(xm uint64) int {
	m := len(c.keys) - 1
	t := c.home(xm)
	for c.keys[t] != xm && c.keys[t] != noCell {
		t = (t + 1) & m
	}
	return t
}

// set returns the row set of slot t.
func (c *cellRows) set(t int) []uint64 { return c.sets[t*c.nw : (t+1)*c.nw] }

// add records that xm is some query's argmin at row i.
func (c *cellRows) add(xm uint64, i int) {
	t := c.find(xm)
	if c.keys[t] == noCell {
		if 4*(c.n+1) > 3*len(c.keys) {
			c.resize(2 * len(c.keys))
			t = c.find(xm)
		}
		c.keys[t] = xm
		c.n++
	}
	c.set(t)[i/64] |= 1 << (i % 64)
}

// drop records that no query has xm as its argmin at row i any more.
func (c *cellRows) drop(xm uint64, i int) {
	t := c.find(xm)
	if c.keys[t] == noCell {
		return
	}
	s := c.set(t)
	s[i/64] &^= 1 << (i % 64)
	for _, w := range s {
		if w != 0 {
			return
		}
	}
	c.remove(t)
	if c.n < len(c.keys)/8 && len(c.keys) > minCellSlots {
		c.resize(len(c.keys) / 2)
	}
}

// remove empties slot t, whose set is already zero, and moves back every
// later entry of the cluster that may sit in it.
func (c *cellRows) remove(t int) {
	m := len(c.keys) - 1
	for j := (t + 1) & m; c.keys[j] != noCell; j = (j + 1) & m {
		// The entry at j may move to t if t lies on its probe sequence.
		if h := c.home(c.keys[j]); (j-h)&m >= (j-t)&m {
			c.keys[t] = c.keys[j]
			copy(c.set(t), c.set(j))
			clear(c.set(j))
			t = j
		}
	}
	c.keys[t] = noCell
	c.n--
}

// resize rehashes every cell into a table of slots slots.
func (c *cellRows) resize(slots int) {
	keys, sets := c.keys, c.sets
	c.alloc(slots)
	for t, xm := range keys {
		if xm != noCell {
			u := c.find(xm)
			c.keys[u] = xm
			copy(c.set(u), sets[t*c.nw:(t+1)*c.nw])
			c.n++
		}
	}
}

// addSketch records a sketch's argmin cells; values that no element hashes
// to (≥ p) name none and are skipped.
func (c *cellRows) addSketch(sk minhash.Sketch) {
	for i, v := range sk {
		if xm, ok := c.fam.Invert(i, v); ok {
			c.add(xm, i)
		}
	}
}

// clone returns a copy that shares nothing with c.
func (c *cellRows) clone() *cellRows {
	d := *c
	d.keys = append([]uint64(nil), c.keys...)
	d.sets = append([]uint64(nil), c.sets...)
	return &d
}

// bytes is the table's footprint.
func (c *cellRows) bytes() int { return 8 * (len(c.keys) + len(c.sets)) }

// fill sets mask, row by row, to the bit of the row set of the cell that
// won the row for the window w describes.
func (c *cellRows) fill(mask RowMask, w *minhash.Winners) {
	var at [minhash.MaxWinners]int // offset of each winner's set in sets
	zero := len(c.keys) * c.nw
	for j, xm := range w.Cells {
		at[j] = zero
		if t := c.find(xm); c.keys[t] != noCell {
			at[j] = t * c.nw
		}
	}
	for word := range mask[:c.nw] {
		row := w.Row[word*64 : min(word*64+64, len(w.Row))]
		var acc uint64 // in a register: no store-to-load chain through mask
		for b, j := range row {
			acc |= c.sets[at[j]+word] & (1 << b)
		}
		mask[word] = acc
	}
}

// TrackCells makes x keep the exact pre-filter for fam, the family its
// queries were sketched with: the table is built from the live sketches —
// so an index restored from saved sketches builds it as the original did —
// and Add and Remove keep it exact from then on. Clones share it until
// either side changes.
func (x *Index) TrackCells(fam *minhash.Family) {
	if fam.K() != x.k {
		panic("qindex: TrackCells family K mismatch")
	}
	c := newCellRows(fam, (x.k+63)/64)
	for _, sl := range x.slots {
		if sl.length > 0 {
			c.addSketch(sl.sketch)
		}
	}
	x.cells = c
}

// RowMaskInto sets mask (NewRowMask(K)) to exactly the rows in which some
// query holds the value of the window whose winners w records — the rows
// whose equal search finds an entry — and reports true. It reports false
// and leaves mask alone when x does not track cells or w does not name the
// winner of every row; the caller then probes unmasked.
func (x *Index) RowMaskInto(mask RowMask, w *minhash.Winners) bool {
	if x.cells == nil || len(w.Row) != x.k {
		return false
	}
	x.cells.fill(mask, w)
	return true
}

// Cells returns the number of premixed cells the exact pre-filter holds and
// the bytes of its table; zeros when x does not track cells.
func (x *Index) Cells() (cells, bytes int) {
	if x.cells == nil {
		return 0, 0
	}
	return x.cells.n, x.cells.bytes()
}

// holds reports whether some slot holds v itself at row i.
func (x *Index) holds(i int, v uint64) bool {
	r := &x.rows[i]
	p := prefixOf(v)
	for j := lowerBound(r.fence, p); j < len(r.leaves); j++ {
		lf := r.leaves[j]
		for t := 0; t < leafCap && lf[t] != pad; t++ {
			switch q := uint32(lf[t] >> 32); {
			case q < p:
				continue
			case q > p:
				return false
			}
			if x.slots[uint32(lf[t])].sketch[i] == v {
				return true
			}
		}
	}
	return false
}
