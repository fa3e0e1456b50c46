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
// none of their machinery: per owned query, the K relations one Compare at
// a time; related iff some position is Equal; pruned iff related and the
// Less count exceeds K(1−δ). It also counts the rows holding the window's
// value nowhere, which is what a masked probe must report for the admitted
// ones among them.
func oracleProbe(queries []Query, sk minhash.Sketch, delta float64, shard, nshards int) (norm string, emptyRow []bool) {
	k := len(sk)
	emptyRow = make([]bool, k)
	for i := range emptyRow {
		emptyRow[i] = !slices.ContainsFunc(queries, func(q Query) bool { return q.Sketch[i] == sk[i] })
	}
	var out ProbeOutput
	for _, q := range queries {
		if ShardOf(q.ID, nshards) != shard {
			continue
		}
		sig := bitsig.New(k)
		for r := range sk {
			sig.Set(r, bitsig.Compare(sk[r], q.Sketch[r]))
		}
		_, eq, less := sig.Counts()
		switch {
		case eq == 0:
		case float64(less) > float64(k)*(1-delta):
			out.Pruned = append(out.Pruned, q.ID)
		default:
			out.Related = append(out.Related, Result{QID: q.ID, Length: q.Length, Sig: sig})
		}
	}
	return normalizeProbe(out), emptyRow
}

// version is one immutable state of the churned index with the query list
// it must answer for.
type version struct {
	x       *Index
	queries []Query // insertion order, as a Scan would hold them
}

// probeVsScan drives one index through a seeded Add/Remove/Clone history
// and, between mutations, probes it — and an older clone of it, of another
// size — on ONE scratch shared by every probe of the run, checking each
// output against the oracle: Related ids, lengths and plane words, the
// Pruned set, and for masked probes EmptySearches and Comparisons. Values
// come from a universe of a few numbers u so that rows are mostly ties, and
// vSel lays them across the cut between the prefix a row keeps and the bits
// it drops: u itself (every prefix zero), u<<29 (the prefix decides),
// u<<29 or u<<29|1 (equal prefixes over different values), or any of these
// and Empty, draw by draw.
func probeVsScan(t *testing.T, seed int64, kSel, uSel, vSel, steps uint8) {
	rng := rand.New(rand.NewSource(seed))
	k := 1 + int(kSel)%130
	universe := 2 + int(uSel)%6
	value := func(form int) uint64 {
		u := uint64(rng.Intn(universe))
		switch form {
		case 0:
			return u
		case 1:
			return u << 29
		case 2:
			return u<<29 | uint64(rng.Intn(2))
		default:
			return minhash.Empty
		}
	}
	sketch := func() minhash.Sketch {
		sk := make(minhash.Sketch, k)
		for i := range sk {
			if form := int(vSel) % 4; form < 3 {
				sk[i] = value(form)
			} else {
				sk[i] = value(rng.Intn(4))
			}
		}
		return sk
	}
	nextID := 1
	fresh := func() Query {
		q := Query{ID: nextID, Length: 1 + rng.Intn(50), Sketch: sketch()}
		nextID++
		return q
	}

	cur := version{}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		cur.queries = append(cur.queries, fresh())
	}
	var err error
	if cur.x, err = Build(cur.queries); err != nil {
		t.Fatal(err)
	}
	older := version{x: cur.x.Clone(), queries: slices.Clone(cur.queries)}

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
		sk := sketch()
		delta := []float64{0, 0.25, 0.5, 0.7, 0.9}[rng.Intn(5)]
		for _, nshards := range []int{1, 2, 3} {
			for shard := 0; shard < nshards; shard++ {
				want, emptyRow := oracleProbe(v.queries, sk, delta, shard, nshards)
				where := fmt.Sprintf("seed %d K=%d δ=%.2f shard %d/%d over %d queries", seed, k, delta, shard, nshards, len(v.queries))

				scanOut, scanned := (&Scan{Queries: v.queries}).ProbeInto(ps, sk, delta, shard, nshards)
				if got := normalizeProbe(*scanOut); got != want {
					t.Fatalf("%s: scan diverges from the oracle\ngot:\n%swant:\n%s", where, got, want)
				}
				if scanOut.Comparisons != scanned*k {
					t.Fatalf("%s: scan counted %d comparisons for %d sketches", where, scanOut.Comparisons, scanned)
				}

				plain := v.x.ProbeInto(ps, sk, delta, shard, nshards, nil)
				if got := normalizeProbe(*plain); got != want {
					t.Fatalf("%s: unmasked probe diverges from the oracle\ngot:\n%swant:\n%s", where, got, want)
				}
				if plain.EmptySearches != 0 {
					t.Fatalf("%s: unmasked probe reports %d empty searches", where, plain.EmptySearches)
				}
				comparisons := plain.Comparisons

				// Sound masks: every non-empty row, plus random false positives.
				mask, wantEmpty := NewRowMask(k), 0
				for i, empty := range emptyRow {
					if !empty {
						mask.Set(i)
					} else if rng.Intn(3) == 0 {
						mask.Set(i)
						wantEmpty++
					}
				}
				masked := v.x.ProbeInto(ps, sk, delta, shard, nshards, mask)
				if got := normalizeProbe(*masked); got != want {
					t.Fatalf("%s: masked probe diverges from the oracle\ngot:\n%swant:\n%s", where, got, want)
				}
				if masked.EmptySearches != wantEmpty || masked.Comparisons != comparisons {
					t.Fatalf("%s: masked probe: %d empty searches (want %d), %d comparisons (unmasked %d)",
						where, masked.EmptySearches, wantEmpty, masked.Comparisons, comparisons)
				}
			}
		}
	}

	for step := 0; step < 4+int(steps)%40; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // add: a new id, or a removed one back with a new sketch
			q := fresh()
			if n := len(removed); n > 0 && rng.Intn(2) == 0 {
				q.ID, removed = removed[n-1], removed[:n-1]
			}
			slotsBefore, freeBefore := len(cur.x.slots), len(cur.x.free)
			if err := cur.x.Add(q); err != nil {
				t.Fatalf("seed %d step %d: add: %v", seed, step, err)
			}
			if freeBefore > 0 && len(cur.x.slots) != slotsBefore {
				t.Fatalf("seed %d step %d: Add grew the slot table with %d slots free", seed, step, freeBefore)
			}
			cur.queries = append(cur.queries, q)
		case op < 7 && len(cur.queries) > 1:
			i := rng.Intn(len(cur.queries))
			id := cur.queries[i].ID
			if err := cur.x.Remove(id); err != nil {
				t.Fatalf("seed %d step %d: remove: %v", seed, step, err)
			}
			cur.queries = slices.Delete(cur.queries, i, i+1)
			removed = append(removed, id)
		case op < 8: // copy-on-write: the old version lives on, frozen
			older = cur
			cur = version{x: cur.x.Clone(), queries: slices.Clone(cur.queries)}
		}
		verifyStructure(t, cur.x, cur.queries)
		check(cur)
		check(older)
	}
	verifyStructure(t, older.x, older.queries)
}

func TestProbeVsScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		probeVsScan(t, seed, uint8(seed*37), uint8(seed), 0, uint8(seed*11))
		probeVsScan(t, seed, uint8(seed*37), uint8(seed), 1+uint8(seed%3), uint8(seed*11))
	}
	// K = 64 and 128 exactly: no partial last word.
	probeVsScan(t, 99, 63, 1, 0, 30)
	probeVsScan(t, 100, 127, 0, 3, 30)
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
