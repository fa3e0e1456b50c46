package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPlaneVersioning pins the copy-on-write contract at the QuerySet
// level: every churn operation publishes a new version, and a plane
// captured before churn is immutable — it still holds exactly the
// subscription set it was published with.
func TestPlaneVersioning(t *testing.T) {
	qs, err := NewQuerySet(64, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Version() != 0 {
		t.Fatalf("empty set at version %d", qs.Version())
	}
	rng := rand.New(rand.NewSource(1))
	if err := qs.Add(1, idStream(rng, 1, 40)); err != nil {
		t.Fatal(err)
	}
	old := qs.view()
	if old.version != 1 || old.index.Len() != 1 {
		t.Fatalf("after one add: version=%d queries=%d", old.version, old.index.Len())
	}

	if err := qs.Add(2, idStream(rng, 2, 40)); err != nil {
		t.Fatal(err)
	}
	if err := qs.Remove(1); err != nil {
		t.Fatal(err)
	}
	if qs.Version() != 3 {
		t.Fatalf("after add+add+remove: version %d, want 3", qs.Version())
	}
	// The captured plane is frozen: still version 1, still only query 1,
	// and its index still probes exactly that set.
	if old.version != 1 || old.index.Len() != 1 || old.index.Lookup(1) == nil || old.index.Lookup(2) != nil {
		t.Fatalf("captured plane mutated: version=%d queries=%d", old.version, old.index.Len())
	}
	cur := qs.view()
	if cur.index.Len() != 1 || cur.index.Lookup(2) == nil {
		t.Fatal("current plane does not reflect churn")
	}
	if qs.PlaneBytes() <= 0 {
		t.Fatal("PlaneBytes reported nothing for a non-empty plane")
	}

	// AddBatch lands as one version.
	v := qs.Version()
	ids := []int{10, 11, 12}
	var cells [][]uint64
	for _, id := range ids {
		cells = append(cells, idStream(rng, id, 30))
	}
	if err := qs.AddBatch(ids, cells); err != nil {
		t.Fatal(err)
	}
	if qs.Version() != v+1 {
		t.Fatalf("batch of 3 advanced version by %d, want 1", qs.Version()-v)
	}
}

// churnPlan is one deterministic churn action executed at a window
// boundary: before pushing window winIdx, add or remove a query.
type churnPlan struct {
	winIdx int
	add    bool
	id     int
	cells  []uint64
}

// runChurned pushes the stream window by window, executing each planned
// churn action at its boundary. When concurrent is true the churn runs on
// a second goroutine with a channel handshake per boundary — same ordering
// as inline, but the plane swap is exercised cross-goroutine so the race
// detector checks the lock-free reader path; the handshake keeps the
// output comparable to the inline (pause-churn-resume) run byte for byte.
func runChurned(t *testing.T, v variant, stream []uint64, w int, plan []churnPlan, concurrent bool) ([]Match, Stats, uint64) {
	t.Helper()
	e := newTestEngine(t, v, 64, 0.6, w)
	rng := rand.New(rand.NewSource(42))
	if err := e.AddQuery(1, idStream(rng, 1, 4*w)); err != nil {
		t.Fatal(err)
	}

	var churn func(p churnPlan)
	inline := func(p churnPlan) {
		if p.add {
			if err := e.AddQuery(p.id, p.cells); err != nil {
				t.Error(err)
			}
		} else if err := e.RemoveQuery(p.id); err != nil {
			t.Error(err)
		}
	}
	var (
		req  chan churnPlan
		done chan struct{}
		wg   sync.WaitGroup
	)
	if concurrent {
		req = make(chan churnPlan)
		done = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range req {
				inline(p)
				done <- struct{}{}
			}
		}()
		churn = func(p churnPlan) {
			req <- p
			<-done
		}
	} else {
		churn = inline
	}

	next := 0
	for off := 0; off < len(stream); off += w {
		for next < len(plan) && plan[next].winIdx == off/w {
			churn(plan[next])
			next++
		}
		end := off + w
		if end > len(stream) {
			end = len(stream)
		}
		e.PushFrames(stream[off:end])
	}
	if concurrent {
		close(req)
		wg.Wait()
	}
	e.Flush()
	return e.Matches, e.Stats(), e.PlaneVersion()
}

// TestPlaneChurnEquivalence runs add/remove churn mid-stream from a second
// goroutine (the copy-on-write fast path, under -race in CI) and asserts
// the output is byte-identical to the same churn applied inline between
// pushes — the pause-churn-resume reference. Covers indexed and scan
// planes, and PreFilter set.
func TestPlaneChurnEquivalence(t *testing.T) {
	for _, v := range []variant{
		{"bit-seq-index", Bit, Sequential, true, false},
		{"bit-geo-noindex", Bit, Geometric, false, false},
		{"bit-seq-prefilter", Bit, Sequential, true, true},
		{"sketch-seq-index", Sketch, Sequential, true, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			const w = 10
			rng := rand.New(rand.NewSource(42))
			q1 := idStream(rng, 1, 4*w) // must match runChurned's subscription
			qX := idStream(rng, 5, 3*w)
			rng2 := rand.New(rand.NewSource(99))
			// Background with two embedded copies of q1 and one of qX.
			var stream []uint64
			stream = append(stream, idStream(rng2, 100, 6*w)...)
			stream = append(stream, q1...)
			stream = append(stream, idStream(rng2, 101, 4*w)...)
			stream = append(stream, qX...)
			stream = append(stream, idStream(rng2, 102, 4*w)...)
			stream = append(stream, q1...)
			stream = append(stream, idStream(rng2, 103, 2*w)...)

			plan := []churnPlan{
				{winIdx: 3, add: true, id: 5, cells: qX},
				{winIdx: 8, add: true, id: 6, cells: idStream(rng2, 104, 2*w)},
				{winIdx: 12, add: false, id: 6},
			}
			inlineM, inlineS, _ := runChurned(t, v, stream, w, plan, false)
			concM, concS, ver := runChurned(t, v, stream, w, plan, true)

			if len(inlineM) != len(concM) {
				t.Fatalf("inline churn found %d matches, concurrent churn %d", len(inlineM), len(concM))
			}
			for i := range inlineM {
				if inlineM[i] != concM[i] {
					t.Errorf("match %d differs: %+v vs %+v", i, inlineM[i], concM[i])
				}
			}
			if inlineS != concS {
				t.Errorf("stats diverge:\ninline     %+v\nconcurrent %+v", inlineS, concS)
			}
			if len(inlineM) == 0 {
				t.Fatal("workload found no matches; churn equivalence vacuous")
			}
			// 1 initial subscription + 3 churn ops.
			if ver != 4 {
				t.Errorf("final window ran on plane version %d, want 4", ver)
			}
		})
	}
}

// TestPlaneChurnInFlight verifies the never-stall contract directly: while
// an engine goroutine streams continuously (no handshake), another hammers
// Add/Remove. Under -race this proves window processing never touches a
// mutating structure, and the stable query's copies must still be found —
// matches for a query that was subscribed before the stream started are
// unaffected by unrelated churn.
func TestPlaneChurnInFlight(t *testing.T) {
	const w = 10
	e := newTestEngine(t, variant{"bit-seq-index", Bit, Sequential, true, false}, 64, 0.6, w)
	rng := rand.New(rand.NewSource(7))
	stable := idStream(rng, 1, 4*w)
	if err := e.AddQuery(1, stable); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := rand.New(rand.NewSource(8))
		id := 100
		for {
			select {
			case <-stop:
				return
			default:
			}
			cells := idStream(crng, id, 2*w)
			if err := e.AddQuery(id, cells); err != nil {
				t.Error(err)
				return
			}
			if id%2 == 0 {
				if err := e.RemoveQuery(id); err != nil {
					t.Error(err)
					return
				}
			}
			id++
		}
	}()

	srng := rand.New(rand.NewSource(9))
	for seg := 0; seg < 8; seg++ {
		e.PushFrames(idStream(srng, 200+seg, 3*w))
		e.PushFrames(stable)
	}
	close(stop)
	wg.Wait()
	e.Flush()

	found := 0
	for _, m := range e.Matches {
		if m.QueryID == 1 {
			found++
		}
	}
	if found == 0 {
		t.Fatal("stable query lost under concurrent churn")
	}
	if e.PlaneVersion() == 0 {
		t.Fatal("engine never observed a churned plane")
	}
	if e.PlaneVersion() > e.Queries().Version() {
		t.Fatalf("engine plane version %d ahead of query set version %d",
			e.PlaneVersion(), e.Queries().Version())
	}
}
