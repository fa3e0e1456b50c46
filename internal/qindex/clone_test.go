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
	x, err := Build(queries[:10])
	if err != nil {
		t.Fatal(err)
	}

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
	if _, ok := x.SketchOf(queries[3].ID); !ok {
		t.Fatal("query removed from original by clone's Remove")
	}
	if _, ok := c.SketchOf(queries[3].ID); ok {
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
