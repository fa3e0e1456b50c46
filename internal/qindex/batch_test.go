package qindex

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vdsms/internal/minhash"
)

// withProcs runs f under GOMAXPROCS n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// dump writes out everything x holds: every slot with its numbers, length,
// cell ids and values, every posting list in order with the capacity of
// its arrays, and the running counts.
func dump(x *Index) string {
	var b strings.Builder
	var slots []*slot
	x.ids.each(func(s *slot) { slots = append(slots, s) })
	slices.SortFunc(slots, func(a, b *slot) int { return cmp.Compare(a.ID, b.ID) })
	for _, s := range slots {
		fmt.Fprintf(&b, "slot %d seq %d n %d length %d cells %v values %x\n", s.ID, s.seq, s.n, s.Length, s.CellIDs, s.Sketch.Sketch())
	}
	var lists []*postings
	x.cells.each(func(p *postings) { lists = append(lists, p) })
	slices.SortFunc(lists, func(a, b *postings) int { return cmp.Compare(a.cell, b.cell) })
	for _, p := range lists {
		fmt.Fprintf(&b, "cell %x caps %d/%d:", p.cell, cap(p.slots), cap(p.rows))
		for j, s := range p.slots {
			fmt.Fprintf(&b, " %d%x", s.ID, p.rows[j*x.nw:(j+1)*x.nw])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "seq %d nslots %d nfree %d longest %d bytes %d held %d\n",
		x.seq, x.nslots, x.nfree, x.longest, x.Bytes(), x.HeldBytes())
	return b.String()
}

// TestWithAnyCoreCount: a batch — queries given by their cells and by their
// sketches, onto an index with free slot numbers — joins as the same index
// under GOMAXPROCS 1, 2 and 4, keyed and not: the same slots, numbers,
// values, posting lists in the same order and the same bytes.
func TestWithAnyCoreCount(t *testing.T) {
	fam, _ := minhash.NewFamily(192, 4)
	base := makeQueries(t, fam, 24, 8)
	rng := rand.New(rand.NewSource(9))
	var batch []Query
	for i := range 150 {
		q := Query{ID: 100 + i, CellIDs: make([]uint64, 5+rng.Intn(40))}
		for j := range q.CellIDs {
			q.CellIDs[j] = uint64(rng.Intn(700))
		}
		q.Length = len(q.CellIDs)
		if i%7 == 3 {
			q.Sketch, q.CellIDs = fam.SketchSet(q.CellIDs), nil
		}
		batch = append(batch, q)
	}
	held := slices.DeleteFunc(slices.Clone(base), func(q Query) bool { return q.ID == 3 || q.ID == 17 || q.ID == 9 })
	for _, q := range batch {
		if q.Sketch == nil {
			q.Sketch = fam.SketchSet(q.CellIDs)
		}
		held = append(held, q)
	}
	for _, keyed := range []bool{true, false} {
		build := NewScan
		if keyed {
			build = New
		}
		x, err := build(fam, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{3, 17, 9} {
			if err := x.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		var want string
		for _, procs := range []int{1, 2, 4} {
			var got *Index
			withProcs(procs, func() { got, err = x.With(batch) })
			if err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				verifyStructure(t, got, held)
				want = dump(got)
				continue
			}
			if d := strings.Split(dump(got), "\n"); !slices.Equal(d, strings.Split(want, "\n")) {
				for n, line := range strings.Split(want, "\n") {
					if n >= len(d) || d[n] != line {
						t.Fatalf("keyed=%v: the batch joined under GOMAXPROCS %d differs at line %d of its dump:\n%.300s\nwant\n%.300s", keyed, procs, n, d[min(n, len(d)-1)], line)
					}
				}
				t.Fatalf("keyed=%v: the batch joined under GOMAXPROCS %d dumps %d lines, want fewer", keyed, procs, len(d))
			}
		}
	}
}
