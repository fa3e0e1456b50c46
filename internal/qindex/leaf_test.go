package qindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vdsms/internal/minhash"
)

// vocabQueries draws n queries of one to four cells out of a vocabulary of
// cells, so that a row holds at most that many distinct values and its runs
// of equal values span leaves.
func vocabQueries(fam *minhash.Family, rng *rand.Rand, n, cells, firstID int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		ids := make([]uint64, 1+rng.Intn(4))
		for j := range ids {
			ids[j] = uint64(rng.Intn(cells))
		}
		qs[i] = Query{ID: firstID + i, Length: 10 + rng.Intn(90), Sketch: fam.SketchSet(ids)}
	}
	return qs
}

// probeSame holds two indexes over the same queries to the same answers,
// costs included, whatever their rows look like inside.
func probeSame(t *testing.T, where string, a, b *Index, sk minhash.Sketch, delta float64, mask RowMask) {
	t.Helper()
	pa, pb := a.ProbeShardMasked(sk, delta, 0, 1, mask), b.ProbeShardMasked(sk, delta, 0, 1, mask)
	if na, nb := normalizeProbe(pa), normalizeProbe(pb); na != nb {
		t.Fatalf("%s: probes differ\n%s---\n%s", where, na, nb)
	}
	if pa.Comparisons != pb.Comparisons || pa.EmptySearches != pb.EmptySearches {
		t.Fatalf("%s: probe cost differs: %d/%d vs %d/%d", where,
			pa.Comparisons, pa.EmptySearches, pb.Comparisons, pb.EmptySearches)
	}
}

// TestLeafChurn drives the leaf operations no small index reaches — splits,
// folds, leaves emptied, runs that span leaves — through 1 500 steps of
// Clone + Add or Remove on some 300 queries over 40 cells, and every 25th
// step holds the result to the structure invariants and to the answers of
// an index built from scratch.
func TestLeafChurn(t *testing.T) {
	const k, cells = 48, 40
	fam, _ := minhash.NewFamily(k, 41)
	rng := rand.New(rand.NewSource(42))
	live := vocabQueries(fam, rng, 320, cells, 1)
	nextID := len(live) + 1
	x, err := Build(slices.Clone(live))
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 1500; step++ {
		x = x.Clone()
		if add := rng.Intn(2) == 0; (add || len(live) <= 300) && len(live) < 340 {
			q := vocabQueries(fam, rng, 1, cells, nextID)[0]
			nextID++
			if err := x.Add(q); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, q)
		} else {
			i := rng.Intn(len(live))
			if err := x.Remove(live[i].ID); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = slices.Delete(live, i, i+1)
		}
		if step%25 != 0 {
			continue
		}
		verifyStructure(t, x, live)
		fresh, err := Build(slices.Clone(live))
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 6; w++ {
			ids := make([]uint64, 1+rng.Intn(3))
			for j := range ids {
				ids[j] = uint64(rng.Intn(cells + 2)) // now and then a cell no query has
			}
			sk := fam.SketchSet(ids)
			delta := []float64{0, 0.3, 0.7}[w%3]
			where := fmt.Sprintf("step %d window %d δ=%.1f", step, w, delta)
			probeSame(t, where, x, fresh, sk, delta, nil)
			mask := exactRowMask(x, sk)
			mask.Set(rng.Intn(k))
			probeSame(t, where+" masked", x, fresh, sk, delta, mask)
		}
	}
	leaves, full := 0, 0
	for i := range x.rows {
		for _, lf := range x.rows[i].leaves {
			leaves++
			if lf.size() == leafCap {
				full++
			}
		}
	}
	if packed := x.k * ((len(live) + leafCap - 1) / leafCap); leaves == packed || full == leaves {
		t.Fatalf("%d leaves, %d full, for %d entries a row: the churn never split or folded one", leaves, full, len(live))
	}
}

// TestPrefixCollisions pins the nominate-then-verify rule where the prefix
// cannot tell values apart. Each case is a list of query sketches (K = 3, so
// that a slot met in row 0 is met again, kept or pruned, in rows 1 and 2)
// built into an index — the first eight by Build, the rest by Add, which
// splits the full leaf and leaves both halves partly filled — and a window;
// the answer is the oracle's and the cost is counted by hand.
func TestPrefixCollisions(t *testing.T) {
	const (
		v    = uint64(5<<29 | 100)   // a prefix with room on either side inside it
		far  = uint64(9 << 40)       // another one
		far2 = far + 1<<29           // and its neighbour
		far3 = far + 2<<29           //
		last = uint64(1<<32-1) << 29 // the smallest value of the last prefix
		top  = uint64(1<<61 - 1)     // the largest value the family hashes to
		over = minhash.Empty - 1<<29 // clamped to the last prefix, like Empty itself
	)
	same := func(n int, sk ...uint64) (qs [][]uint64) {
		for ; n > 0; n-- {
			qs = append(qs, sk)
		}
		return qs
	}
	cases := []struct {
		name    string
		queries [][]uint64
		window  []uint64
	}{
		// Slots 1, 3 and 4 enter R_L at row 0 and are nominated again, by
		// prefix alone or by value, in rows 1 and 2: kept at δ = 0, pruned
		// (one, then two Less positions) at 0.9 and 0.5.
		{"equal prefix below and above the value",
			[][]uint64{{v - 1, far, far}, {v, far, far2}, {v + 1, far, far}, {v, far + 1, far}, {v, far + 1, far + 2}},
			[]uint64{v, far, far}},
		{"equal prefix only, no equal value",
			[][]uint64{{v - 1, far2, far2}, {v + 1, far2, far2}, {v + 7, far2, far2}},
			[]uint64{v, far, far}},
		{"run across partly filled leaves",
			same(11, v, far, v),
			[]uint64{v, far3, v}},
		{"run across partly filled leaves, strangers inside it",
			append(append(same(5, v, far, far), same(5, v+1, far, far2)...), same(3, v, far3, far)...),
			[]uint64{v, far, far}},
		{"run of three leaves",
			same(21, v, v, v),
			[]uint64{v, v - 1, v + 1}},
		{"last prefix: Empty among clamped values and pads",
			[][]uint64{{minhash.Empty, far, far}, {over, far, far}, {last, far, far}, {top, far, far}, {minhash.Empty, far2, far}},
			[]uint64{minhash.Empty, far, far}},
		{"last prefix: a run of it across leaves",
			append(same(9, minhash.Empty, far, minhash.Empty), same(2, over, far, last)...),
			[]uint64{over, far, minhash.Empty}},
		{"value above every fence",
			same(9, v, far, far),
			[]uint64{top, far2, far3}},
	}
	for _, tc := range cases {
		for _, delta := range []float64{0, 0.5, 0.9} {
			t.Run(fmt.Sprintf("%s/δ=%.1f", tc.name, delta), func(t *testing.T) {
				queries := make([]Query, len(tc.queries))
				for i, sk := range tc.queries {
					queries[i] = Query{ID: i + 1, Length: 10 + i, Sketch: sk}
				}
				x, err := Build(queries[:min(leafCap, len(queries))])
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range queries[min(leafCap, len(queries)):] {
					if err := x.Add(q); err != nil {
						t.Fatal(err)
					}
				}
				verifyStructure(t, x, queries)

				want, emptyRow := oracleProbe(queries, tc.window, delta, 0, 1)
				comparisons, empty := 0, 0
				for _, q := range queries {
					equal := 0
					for i := range tc.window {
						if q.Sketch[i] == tc.window[i] {
							equal++
						}
					}
					if equal > 0 { // entered R_L: one word of K positions compared
						comparisons += equal + len(tc.window)
					}
				}
				mask := NewRowMask(len(tc.window))
				for i, e := range emptyRow {
					mask.Set(i)
					if e {
						empty++
					}
				}
				for name, m := range map[string]RowMask{"unmasked": nil, "masked": mask} {
					got := x.ProbeShardMasked(tc.window, delta, 0, 1, m)
					if n := normalizeProbe(got); n != want {
						t.Fatalf("%s: got\n%swant\n%s", name, n, want)
					}
					wantEmpty := 0
					if m != nil {
						wantEmpty = empty
					}
					if got.Comparisons != comparisons || got.EmptySearches != wantEmpty {
						t.Fatalf("%s: %d comparisons, %d empty searches; want %d, %d",
							name, got.Comparisons, got.EmptySearches, comparisons, wantEmpty)
					}
				}
			})
		}
	}
}

// TestCloneMutateOriginal is the other half of TestCloneProbeEquivalence:
// after a Clone the original is as free to change as the clone is, and
// neither change shows on the other side.
func TestCloneMutateOriginal(t *testing.T) {
	fam, _ := minhash.NewFamily(24, 4)
	rng := rand.New(rand.NewSource(5))
	queries := vocabQueries(fam, rng, 40, 12, 1)
	x, err := Build(slices.Clone(queries[:36]))
	if err != nil {
		t.Fatal(err)
	}
	windows := []minhash.Sketch{queries[3].Sketch, queries[20].Sketch, fam.SketchSet([]uint64{1, 5}), fam.SketchSet([]uint64{99})}
	c := x.Clone()
	before := make([]ProbeOutput, len(windows))
	for i, w := range windows {
		before[i] = c.Probe(w, 0.4)
	}

	// The original moves first, in rows it still shares with the clone.
	for _, q := range queries[36:38] {
		if err := x.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Remove(queries[3].ID); err != nil {
		t.Fatal(err)
	}
	inX := append(slices.Clone(queries[:3]), queries[4:38]...)
	verifyStructure(t, x, inX)
	verifyStructure(t, c, queries[:36])
	for i, w := range windows {
		probeEqual(t, before[i], c.Probe(w, 0.4))
	}

	// Then the clone, in rows the original has meanwhile made its own.
	after := make([]ProbeOutput, len(windows))
	for i, w := range windows {
		after[i] = x.Probe(w, 0.4)
	}
	if err := c.Remove(queries[20].ID); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[38:] {
		if err := c.Add(q); err != nil {
			t.Fatal(err)
		}
	}
	verifyStructure(t, c, append(append(slices.Clone(queries[:20]), queries[21:36]...), queries[38:]...))
	verifyStructure(t, x, inX)
	for i, w := range windows {
		probeEqual(t, after[i], x.Probe(w, 0.4))
	}

	// A clone of a clone, taken while its parent owns some rows and not
	// others, must start out owning none.
	cc := c.Clone()
	if err := c.Remove(queries[0].ID); err != nil {
		t.Fatal(err)
	}
	verifyStructure(t, cc, append(append(slices.Clone(queries[:20]), queries[21:36]...), queries[38:]...))
}

// TestProbeWhileChurning is the query plane's concurrency contract at this
// layer, for the race detector: readers probe whichever index is published
// while one writer clones it, changes the clone and publishes that. The
// first eight queries are never removed, so every probe of one of their
// sketches must find its owner with an all-Equal signature.
func TestProbeWhileChurning(t *testing.T) {
	const k, cells, fixed = 32, 24, 8
	fam, _ := minhash.NewFamily(k, 51)
	rng := rand.New(rand.NewSource(52))
	live := vocabQueries(fam, rng, 64, cells, 1)
	x, err := Build(slices.Clone(live))
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[Index]
	cur.Store(x)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ps := new(ProbeScratch)
			for n := r; !stop.Load(); n++ {
				q := live[n%fixed]
				found := false
				for _, res := range cur.Load().ProbeInto(ps, q.Sketch, 0.5, 0, 1, nil).Related {
					found = found || (res.QID == q.ID && res.Sig.Similarity() == 1)
				}
				if !found {
					t.Errorf("reader %d: query %d not related to its own sketch", r, q.ID)
					return
				}
			}
		}(r)
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	churned := slices.Clone(live[fixed:])
	for step, nextID := 0, len(live)+1; step < 400; step++ {
		x = x.Clone()
		if step%2 == 0 {
			i := rng.Intn(len(churned))
			err = x.Remove(churned[i].ID)
			churned = slices.Delete(churned, i, i+1)
		} else {
			q := vocabQueries(fam, rng, 1, cells, nextID)[0]
			nextID++
			err = x.Add(q)
			churned = append(churned, q)
		}
		if err != nil {
			t.Fatal(err)
		}
		cur.Store(x)
	}
	verifyStructure(t, x, append(slices.Clone(live[:fixed]), churned...))
}
