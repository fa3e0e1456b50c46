package qindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vdsms/internal/minhash"
)

// normalizeProbe reduces a ProbeOutput to a canonical, order-independent
// form: related entries sorted by query id with their signature planes,
// plus the sorted pruned id list. Two probes over the same logical query
// set must normalise identically even when the physical column layout
// (and hence discovery order) differs — e.g. a freshly built index versus
// one that converged to the same set through churn.
func normalizeProbe(po ProbeOutput) string {
	rel := append([]Result(nil), po.Related...)
	sort.Slice(rel, func(i, j int) bool { return rel[i].QID < rel[j].QID })
	pruned := append([]int(nil), po.Pruned...)
	sort.Ints(pruned)
	s := fmt.Sprintf("pruned=%v\n", pruned)
	for _, r := range rel {
		s += fmt.Sprintf("q%d len=%d lo=%x hi=%x\n", r.QID, r.Length, r.Sig.Lo, r.Sig.Hi)
	}
	return s
}

// TestAddRemoveErrors is the table-driven contract for online maintenance:
// duplicate subscriptions, unknown removals and malformed queries must
// surface as errors — never silent no-ops or panics — and must leave the
// index untouched.
func TestAddRemoveErrors(t *testing.T) {
	fam, _ := minhash.NewFamily(16, 30)
	base := makeQueries(t, fam, 4, 31)
	shortSketch := make(minhash.Sketch, 8)

	cases := []struct {
		name string
		op   func(x *Index) error
	}{
		{"add duplicate id", func(x *Index) error {
			return x.Add(Query{ID: base[0].ID, Length: 50, Sketch: fam.SketchSet([]uint64{9, 9, 9})})
		}},
		{"add mismatched K", func(x *Index) error {
			return x.Add(Query{ID: 99, Length: 50, Sketch: shortSketch})
		}},
		{"add zero length", func(x *Index) error {
			return x.Add(Query{ID: 99, Length: 0, Sketch: fam.SketchSet([]uint64{1})})
		}},
		{"add negative length", func(x *Index) error {
			return x.Add(Query{ID: 99, Length: -3, Sketch: fam.SketchSet([]uint64{1})})
		}},
		{"remove unknown id", func(x *Index) error {
			return x.Remove(1234)
		}},
		{"remove twice", func(x *Index) error {
			if err := x.Remove(base[1].ID); err != nil {
				return fmt.Errorf("first remove unexpectedly failed: %w", err)
			}
			return x.Remove(base[1].ID)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, err := Build(append([]Query(nil), base...))
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.op(x); err == nil {
				t.Fatal("operation succeeded, want error")
			}
			// The failed operation must not have corrupted the structure.
			want := base
			if tc.name == "remove twice" {
				want = append(append([]Query(nil), base[:1]...), base[2:]...)
			}
			verifyStructure(t, x, want)
		})
	}
}

// TestProbeChurnEquivalence is the churn fuzz satellite: an index driven
// through interleaved Add/Remove sequences that end in a given query set
// must probe identically (normalised) to an index built from that set
// directly — across many random churn schedules and probe windows.
func TestProbeChurnEquivalence(t *testing.T) {
	fam, _ := minhash.NewFamily(48, 32)
	pool := makeQueries(t, fam, 24, 33)

	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))

		// The churned index: start somewhere, add/remove at random.
		churned, err := Build(append([]Query(nil), pool[:6]...))
		if err != nil {
			t.Fatal(err)
		}
		in := map[int]Query{}
		for _, q := range pool[:6] {
			in[q.ID] = q
		}
		for step := 0; step < 80; step++ {
			if rng.Intn(2) == 0 || len(in) <= 2 {
				q := pool[rng.Intn(len(pool))]
				if _, dup := in[q.ID]; dup {
					continue
				}
				if err := churned.Add(q); err != nil {
					t.Fatalf("trial %d step %d add: %v", trial, step, err)
				}
				in[q.ID] = q
			} else {
				ids := make([]int, 0, len(in))
				for id := range in {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				victim := ids[rng.Intn(len(ids))]
				if err := churned.Remove(victim); err != nil {
					t.Fatalf("trial %d step %d remove: %v", trial, step, err)
				}
				delete(in, victim)
			}
		}

		// The reference index: built directly from the surviving set.
		var final []Query
		for _, q := range pool {
			if _, ok := in[q.ID]; ok {
				final = append(final, q)
			}
		}
		fresh, err := Build(final)
		if err != nil {
			t.Fatal(err)
		}

		// Probe both with windows overlapping the query universe.
		for w := 0; w < 15; w++ {
			ids := make([]uint64, rng.Intn(20)+5)
			for j := range ids {
				ids[j] = uint64(rng.Intn(500))
			}
			sk := fam.SketchSet(ids)
			delta := 0.4 + 0.5*rng.Float64()
			got := normalizeProbe(churned.Probe(sk, delta))
			want := normalizeProbe(fresh.Probe(sk, delta))
			if got != want {
				t.Fatalf("trial %d window %d δ=%.2f: churned index diverges from fresh build\nchurned:\n%s\nfresh:\n%s",
					trial, w, delta, got, want)
			}
		}
	}
}

// exactRowMask builds the ground-truth admission mask for a window sketch:
// bit i set iff some indexed query holds sk[i] at row i — what an ideal
// (false-positive-free) pre-filter would compute.
func exactRowMask(x *Index, sk minhash.Sketch) RowMask {
	m := NewRowMask(x.k)
	for i, v := range sk {
		if vals, _, _ := rowOf(x, i); slices.Contains(vals, v) {
			m.Set(i)
		}
	}
	return m
}

// TestProbeShardMaskedMatchesUnmasked: under any sound mask (the exact one,
// or the exact one widened by random false positives) the masked probe must
// reproduce the unmasked output bit for bit, for every shard partition.
func TestProbeShardMaskedMatchesUnmasked(t *testing.T) {
	fam, _ := minhash.NewFamily(64, 34)
	queries := makeQueries(t, fam, 30, 35)
	x, err := Build(queries)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 20; trial++ {
		ids := make([]uint64, rng.Intn(20)+5)
		for j := range ids {
			ids[j] = uint64(rng.Intn(500))
		}
		sk := fam.SketchSet(ids)
		delta := 0.4 + 0.5*rng.Float64()

		exact := exactRowMask(x, sk)
		widened := NewRowMask(x.k)
		copy(widened, exact)
		for i := 0; i < x.k; i++ {
			if rng.Intn(4) == 0 { // sprinkle false positives
				widened.Set(i)
			}
		}

		for _, nshards := range []int{1, 3, 8} {
			for shard := 0; shard < nshards; shard++ {
				want := x.ProbeShardMasked(sk, delta, shard, nshards, nil)
				for name, mask := range map[string]RowMask{"exact": exact, "widened": widened} {
					got := x.ProbeShardMasked(sk, delta, shard, nshards, mask)
					if normalizeProbe(got) != normalizeProbe(want) {
						t.Fatalf("trial %d shard %d/%d mask=%s: masked probe diverges", trial, shard, nshards, name)
					}
					if got.Comparisons != want.Comparisons {
						t.Fatalf("trial %d shard %d/%d mask=%s: Comparisons %d != %d — masking must only skip empty searches",
							trial, shard, nshards, name, got.Comparisons, want.Comparisons)
					}
				}
				// The exact mask by construction has no empty searches.
				if got := x.ProbeShardMasked(sk, delta, shard, nshards, exact); got.EmptySearches != 0 {
					t.Fatalf("trial %d: exact mask reports %d empty searches", trial, got.EmptySearches)
				}
			}
		}
	}
}

// TestRowMaskSemantics pins the nil-admits-all convention.
func TestRowMaskSemantics(t *testing.T) {
	var nilMask RowMask
	if !nilMask.Admits(0) || !nilMask.Admits(1000) {
		t.Error("nil mask must admit every row")
	}
	m := NewRowMask(130)
	for i := 0; i < 130; i++ {
		if m.Admits(i) {
			t.Fatalf("fresh mask admits row %d", i)
		}
	}
	m.Set(0)
	m.Set(64)
	m.Set(129)
	for i := 0; i < 130; i++ {
		want := i == 0 || i == 64 || i == 129
		if m.Admits(i) != want {
			t.Fatalf("row %d: Admits=%v want %v", i, m.Admits(i), want)
		}
	}
}
