package qindex

import (
	"math/rand"
	"slices"
	"testing"

	"vdsms/internal/minhash"
)

// probeEqual compares two probe outputs entry by entry, down to the
// comparison counts the cost experiments rely on.
func probeEqual(t *testing.T, a, b ProbeOutput) {
	t.Helper()
	if a.Comparisons != b.Comparisons || a.EmptySearches != b.EmptySearches {
		t.Fatalf("probe cost differs: %d/%d vs %d/%d",
			a.Comparisons, a.EmptySearches, b.Comparisons, b.EmptySearches)
	}
	if len(a.Related) != len(b.Related) {
		t.Fatalf("related list length %d vs %d", len(a.Related), len(b.Related))
	}
	for i := range a.Related {
		ra, rb := a.Related[i], b.Related[i]
		if ra.QID != rb.QID || ra.Length != rb.Length {
			t.Fatalf("related[%d] differs: %d/%d vs %d/%d",
				i, ra.QID, ra.Length, rb.QID, rb.Length)
		}
		for r := 0; r < ra.Sig.K; r++ {
			if ra.Sig.At(r) != rb.Sig.At(r) {
				t.Fatalf("related[%d] signature differs at row %d", i, r)
			}
		}
	}
	if !slices.Equal(a.Pruned, b.Pruned) {
		t.Fatalf("pruned lists differ: %v vs %v", a.Pruned, b.Pruned)
	}
}

// TestCloneProbeEquivalence pins the copy-on-write contract the versioned
// query plane builds on: a clone is probe-for-probe identical to its
// original, and mutating the clone (Add and Remove) leaves the original's
// structure and probe output untouched.
func TestCloneProbeEquivalence(t *testing.T) {
	fam, _ := minhash.NewFamily(24, 4)
	queries := makeQueries(t, fam, 12, 11)
	x := newIndex(t, fam, queries[:10])

	rng := rand.New(rand.NewSource(12))
	windows := make([]minhash.Sketch, 8)
	for i := range windows {
		ids := make([]uint64, 20)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		windows[i] = fam.SketchSet(ids)
	}
	// Mix in a subscribed query's own sketch so the related list is
	// guaranteed non-empty.
	windows = append(windows, queries[3].Sketch)

	c := x.Clone()
	verifyStructure(t, c, queries[:10])
	for _, w := range windows {
		probeEqual(t, x.Probe(w, 0.4), c.Probe(w, 0.4))
	}

	// Snapshot the original's probe outputs, then churn the clone.
	before := make([]ProbeOutput, len(windows))
	for i, w := range windows {
		before[i] = x.Probe(w, 0.4)
	}
	if err := c.Add(queries[10]); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(queries[11]); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(queries[3].ID); err != nil {
		t.Fatal(err)
	}
	mutated := append(append([]Query{}, queries[:3]...), queries[4:]...)
	verifyStructure(t, c, mutated)

	// The original must be bit-for-bit unaffected by the clone's churn.
	if x.Len() != 10 {
		t.Fatalf("original Len %d after clone churn, want 10", x.Len())
	}
	verifyStructure(t, x, queries[:10])
	for i, w := range windows {
		probeEqual(t, before[i], x.Probe(w, 0.4))
	}
	if x.Lookup(queries[3].ID) == nil {
		t.Fatal("query removed from original by clone's Remove")
	}
	if c.Lookup(queries[3].ID) != nil {
		t.Fatal("clone still holds removed query")
	}

	// Bytes tracks the structural growth.
	if c.Bytes() <= 0 || x.Bytes() <= 0 {
		t.Fatal("Bytes reported nothing for a populated index")
	}
	if c.Bytes() <= x.Bytes() {
		t.Fatalf("clone with net +1 query not larger: %d vs %d", c.Bytes(), x.Bytes())
	}
}

// TestWithCheck pins the successor-building half of the API the query
// plane is made of: With takes a batch whole or refuses it whole before
// cloning, sketches queries given by their cell ids from its own copy of
// them, and leaves the index it starts from as it is; Queries lists the
// set in the order it joined, Longest follows the lengths as they come
// and go.
func TestWithCheck(t *testing.T) {
	fam, _ := minhash.NewFamily(32, 21)
	queries := makeQueries(t, fam, 6, 22)
	for _, keyed := range []bool{true, false} {
		build := NewScan
		if keyed {
			build = New
		}
		x, err := build(fam, queries[:4])
		if err != nil {
			t.Fatal(err)
		}
		bytes := x.Bytes()
		cells := []uint64{5, 6, 6, 7}
		fromCells := Query{ID: 40, Length: len(cells), CellIDs: cells}
		for name, batch := range map[string][]Query{
			"duplicate in batch": {queries[4], queries[4]},
			"already subscribed": {queries[4], queries[1]},
			"zero length":        {{ID: 50, Sketch: queries[4].Sketch}},
			"no sketch or cells": {{ID: 50, Length: 3}},
			"mismatched K":       {{ID: 50, Length: 3, Sketch: queries[4].Sketch[:5]}},
		} {
			if err := x.Check(batch); err == nil {
				t.Errorf("keyed=%v: Check accepted %s", keyed, name)
			}
			if c, err := x.With(batch); err == nil || c != nil {
				t.Errorf("keyed=%v: With accepted %s", keyed, name)
			}
		}
		if x.Len() != 4 || x.Bytes() != bytes {
			t.Fatalf("keyed=%v: a refused batch changed the index", keyed)
		}

		c, err := x.With([]Query{queries[5], fromCells, queries[4]})
		if err != nil {
			t.Fatal(err)
		}
		cells[0] = 99 // the index sketched, and keeps, its own copy
		got := c.Lookup(40)
		if !slices.Equal(got.Sketch.Sketch(), fam.SketchSet([]uint64{5, 6, 6, 7})) || !slices.Equal(got.CellIDs, []uint64{5, 6, 6, 7}) {
			t.Fatalf("keyed=%v: query given by cell ids holds %v / %v", keyed, got.Sketch.Sketch(), got.CellIDs)
		}
		if x.Len() != 4 || x.Lookup(40) != nil {
			t.Fatalf("keyed=%v: With changed the index it started from", keyed)
		}
		held := Query{ID: 40, Length: 4, Sketch: got.Sketch.Sketch(), CellIDs: got.CellIDs}
		verifyStructure(t, c, append(slices.Clone(queries[:4]), queries[5], held, queries[4]))

		// Remove then re-add: the query joins again at the end.
		d := c.Clone()
		if err := d.Remove(queries[1].ID); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(queries[1]); err != nil {
			t.Fatal(err)
		}
		var order []int
		for _, q := range d.Queries() {
			order = append(order, q.ID)
		}
		want := []int{queries[0].ID, queries[2].ID, queries[3].ID, queries[5].ID, 40, queries[4].ID, queries[1].ID}
		if !slices.Equal(order, want) {
			t.Fatalf("keyed=%v: Queries in order %v, want %v", keyed, order, want)
		}
		if c.Lookup(queries[1].ID) == nil {
			t.Fatalf("keyed=%v: a clone's Remove changed the index it was cloned from", keyed)
		}

		// Longest follows the lengths: drop queries longest first.
		byLength := d.Queries()
		for i, q := range byLength {
			if q.Sketch == nil {
				byLength[i].Sketch = fam.SketchSet(q.CellIDs)
			}
		}
		slices.SortFunc(byLength, func(a, b Query) int { return b.Length - a.Length })
		for i, q := range byLength {
			if d.Longest() != q.Length {
				t.Fatalf("keyed=%v: Longest %d with %d the longest length left", keyed, d.Longest(), q.Length)
			}
			if err := d.Remove(q.ID); err != nil {
				t.Fatal(err)
			}
			verifyStructure(t, d, byLength[i+1:])
		}
		if d.Longest() != 0 || d.Bytes() != d.nfree*freeBytes {
			t.Fatalf("keyed=%v: an emptied index holds Longest %d, %d bytes", keyed, d.Longest(), d.Bytes())
		}
	}
	if _, err := Build([]Query{queries[0], {ID: 40, Length: 4, CellIDs: []uint64{5}}}); err == nil {
		t.Error("Build, which has no family, accepted a query without a sketch")
	}
}
