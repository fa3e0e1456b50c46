package qindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// oracleProbe is the specification the probers are held to, written with
// none of their machinery: per query, the K relations one Compare at a
// time; related iff some position is Equal; pruned iff related and the Less
// count exceeds K(1−δ). comparisons is the closed form of the cost: per
// related or pruned query, its Equal positions plus the positions the
// kernel compares before Lemma 2 stops it, a 64-position word at a time.
// emptyRow marks the rows holding the window's value nowhere, which is what
// a mask's false positives are counted against.
func oracleProbe(queries []Query, sk minhash.Sketch, delta float64) (norm string, comparisons int, emptyRow []bool) {
	k := len(sk)
	emptyRow = make([]bool, k)
	for i := range emptyRow {
		emptyRow[i] = !slices.ContainsFunc(queries, func(q Query) bool { return q.Sketch[i] == sk[i] })
	}
	limit := int(math.Floor(float64(k) * (1 - delta)))
	var out ProbeOutput
	for _, q := range queries {
		sig := bitsig.New(k)
		for r := range sk {
			sig.Set(r, bitsig.Compare(sk[r], q.Sketch[r]))
		}
		_, eq, less := sig.Counts()
		if eq == 0 {
			continue
		}
		compared, partial := 0, 0
		for compared < k && partial <= limit {
			for r := compared; r < min(compared+64, k); r++ {
				if sig.At(r) == bitsig.Less {
					partial++
				}
			}
			compared = min(compared+64, k)
		}
		comparisons += eq + compared
		if float64(less) > float64(k)*(1-delta) {
			out.Pruned = append(out.Pruned, q.ID)
		} else {
			out.Related = append(out.Related, Result{QID: q.ID, Length: q.Length, Sig: sig})
		}
	}
	return normalizeProbe(out), comparisons, emptyRow
}

// version is one immutable state of the churned index with the query list
// it must answer for.
type version struct {
	x       *Index
	scan    *Index  // the same history on a NewScan index
	queries []Query // insertion order
}

// probeVsScan drives one index through a seeded Add/Remove/Clone history
// and, between mutations, probes it — and an older clone of it, of another
// size — on ONE scratch shared by every probe of the run, checking each
// output against the oracle: Related ids, lengths and plane words, the
// Pruned set, Comparisons against its closed form, and for masked probes
// EmptySearches; the NewScan index, churned alongside, and the Build shim
// are held to the same oracle.
// Windows are the sketches of a few elements of a small universe, probed
// with the winners their sketch loop named, or crafted sketches, whose
// cells the index finds by inversion. Query sketches are such real ones or
// crafted, vSel choosing the values a crafted row holds: a small number u
// (0), u<<29 (1), u<<29|b (2), p−1 or a value ≥ p (3), Empty (4), a
// window's value (5), another value with a window's 32-bit prefix (6), or
// any of these, draw by draw (7).
func probeVsScan(t *testing.T, seed int64, kSel, uSel, vSel, steps uint8) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + int(kSel)%130
	fam, _ := minhash.NewFamily(k, seed)
	universe := 2 + int(uSel)%6
	elements := func() []uint64 {
		ids := make([]uint64, 1+rng.Intn(4))
		for j := range ids {
			ids[j] = uint64(rng.Intn(universe))
		}
		return ids
	}
	type window struct {
		sk minhash.Sketch
		w  *minhash.Winners
	}
	windows := make([]window, 4)
	for n := range windows {
		w := new(minhash.Winners)
		windows[n] = window{fam.SketchWinners(elements(), w), w}
	}
	value := func(form, i int) uint64 {
		u := uint64(rng.Intn(universe))
		switch form {
		case 0:
			return u
		case 1:
			return u << 29
		case 2:
			return u<<29 | uint64(rng.Intn(2))
		case 3:
			return 1<<61 - 2 + uint64(rng.Intn(4))
		case 4:
			return minhash.Empty
		case 5:
			return windows[rng.Intn(len(windows))].sk[i]
		default:
			return windows[rng.Intn(len(windows))].sk[i] ^ 1
		}
	}
	crafted := func() minhash.Sketch {
		sk := make(minhash.Sketch, k)
		for i := range sk {
			form := int(vSel) % 8
			if form == 7 {
				form = rng.Intn(7)
			}
			sk[i] = value(form, i)
		}
		return sk
	}
	nextID := 1
	fresh := func() Query {
		q := Query{ID: nextID, Length: 1 + rng.Intn(50), Sketch: crafted()}
		if rng.Intn(3) == 0 {
			q.Sketch = fam.SketchSet(elements())
		}
		nextID++
		return q
	}

	cur := version{}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		cur.queries = append(cur.queries, fresh())
	}
	var err error
	if cur.x, err = New(fam, cur.queries); err != nil {
		t.Fatal(err)
	}
	if cur.scan, err = NewScan(fam, cur.queries); err != nil {
		t.Fatal(err)
	}
	older := version{x: cur.x.Clone(), scan: cur.scan.Clone(), queries: slices.Clone(cur.queries)}

	ps := new(ProbeScratch)
	if seed%2 == 0 {
		// The scratch as 2³² probes would leave it: about to wrap, with
		// marks from the probes that last ran at the first few epochs.
		ps.epoch = math.MaxUint32
		ps.seen = make([]uint32, 70)
		for s := range ps.seen {
			ps.seen[s] = 1 + uint32(s)%7
		}
	}
	var removed []int

	check := func(v version) {
		sk, w := crafted(), (*minhash.Winners)(nil)
		if rng.Intn(2) == 0 {
			win := windows[rng.Intn(len(windows))]
			sk, w = win.sk, win.w
		}
		delta := []float64{0, 0.25, 0.5, 0.7, 0.9}[rng.Intn(5)]
		want, comparisons, emptyRow := oracleProbe(v.queries, sk, delta)
		where := fmt.Sprintf("seed %d K=%d δ=%.2f winners=%v over %d queries", seed, k, delta, w != nil, len(v.queries))

		scanOut := v.scan.ProbeInto(ps, sk, delta, w)
		if got := normalizeProbe(*scanOut); got != want {
			t.Fatalf("%s: scan diverges from the oracle\ngot:\n%swant:\n%s", where, got, want)
		}
		if scanOut.Comparisons != len(v.queries)*k {
			t.Fatalf("%s: scan counted %d comparisons for %d sketches", where, scanOut.Comparisons, len(v.queries))
		}

		shim, err := Build(v.queries)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]*Index{"keyed": v.x, "shim": shim} {
			got := x.ProbeInto(ps, sk, delta, w)
			if n := normalizeProbe(*got); n != want {
				t.Fatalf("%s: %s probe diverges from the oracle\ngot:\n%swant:\n%s", where, name, n, want)
			}
			if got.Comparisons != comparisons || got.EmptySearches != 0 {
				t.Fatalf("%s: %s probe counted %d comparisons (closed form %d), %d empty searches",
					where, name, got.Comparisons, comparisons, got.EmptySearches)
			}
		}

		// Masks: every non-empty row, plus random false positives.
		mask, wantEmpty := NewRowMask(k), 0
		for i, empty := range emptyRow {
			if !empty {
				mask.Set(i)
			} else if rng.Intn(3) == 0 {
				mask.Set(i)
				wantEmpty++
			}
		}
		masked := v.x.ProbeShardMasked(sk, delta, 0, 1, mask)
		if got := normalizeProbe(masked); got != want {
			t.Fatalf("%s: masked probe diverges from the oracle\ngot:\n%swant:\n%s", where, got, want)
		}
		if masked.EmptySearches != wantEmpty || masked.Comparisons != comparisons {
			t.Fatalf("%s: masked probe: %d empty searches (want %d), %d comparisons (want %d)",
				where, masked.EmptySearches, wantEmpty, masked.Comparisons, comparisons)
		}
	}

	for step := 0; step < 4+int(steps)%40; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add: a new id, or a removed one back with a new sketch
			q := fresh()
			if n := len(removed); n > 0 && rng.Intn(2) == 0 {
				q.ID, removed = removed[n-1], removed[:n-1]
			}
			slotsBefore, freeBefore := cur.x.nslots, cur.x.nfree
			if err := cur.x.Add(q); err != nil {
				t.Fatalf("seed %d step %d: add: %v", seed, step, err)
			}
			if err := cur.scan.Add(q); err != nil {
				t.Fatalf("seed %d step %d: scan add: %v", seed, step, err)
			}
			if freeBefore > 0 && cur.x.nslots != slotsBefore {
				t.Fatalf("seed %d step %d: Add took a new slot number with %d free", seed, step, freeBefore)
			}
			cur.queries = append(cur.queries, q)
		case op < 7 && len(cur.queries) > 1:
			i := rng.Intn(len(cur.queries))
			id := cur.queries[i].ID
			if err := cur.x.Remove(id); err != nil {
				t.Fatalf("seed %d step %d: remove: %v", seed, step, err)
			}
			if err := cur.scan.Remove(id); err != nil {
				t.Fatalf("seed %d step %d: scan remove: %v", seed, step, err)
			}
			cur.queries = slices.Delete(cur.queries, i, i+1)
			removed = append(removed, id)
		case op < 8: // copy-on-write: the old version lives on, frozen
			older = cur
			cur = version{x: cur.x.Clone(), scan: cur.scan.Clone(), queries: slices.Clone(cur.queries)}
		}
		verifyStructure(t, cur.x, cur.queries)
		verifyStructure(t, cur.scan, cur.queries)
		check(cur)
		check(older)
	}
	verifyStructure(t, older.x, older.queries)
}

func TestProbeVsScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		probeVsScan(t, seed, uint8(seed*37), uint8(seed), uint8(seed%8), uint8(seed*11))
		probeVsScan(t, seed, uint8(seed*37), uint8(seed), 7, uint8(seed*11))
	}
	// K = 64 and 128 exactly: no partial last word.
	probeVsScan(t, 99, 63, 1, 0, 30)
	probeVsScan(t, 100, 127, 0, 7, 30)
}

func FuzzProbeVsScan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(10))
	f.Add(int64(2), uint8(63), uint8(3), uint8(0), uint8(40))
	f.Add(int64(3), uint8(64), uint8(5), uint8(0), uint8(25))
	f.Add(int64(4), uint8(129), uint8(1), uint8(0), uint8(39))
	f.Add(int64(5), uint8(7), uint8(4), uint8(1), uint8(39))
	f.Add(int64(6), uint8(65), uint8(5), uint8(2), uint8(39))
	f.Add(int64(7), uint8(2), uint8(2), uint8(3), uint8(39))
	f.Add(int64(8), uint8(128), uint8(0), uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, kSel, uSel, vSel, steps uint8) {
		probeVsScan(t, seed, kSel, uSel, vSel, steps)
	})
}
