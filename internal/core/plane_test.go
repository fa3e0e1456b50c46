package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
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

// TestPlaneChurnInFlight verifies the never-stall contract directly: while
// an engine goroutine streams continuously (no handshake), another hammers
// Add/Remove. Under -race this proves window processing never touches a
// mutating structure, and the stable query's copies must still be found —
// matches for a query that was subscribed before the stream started are
// unaffected by unrelated churn.
func TestPlaneChurnInFlight(t *testing.T) {
	const w = 10
	e := newTestEngine(t, variant{"bit-seq-index", Bit, Sequential, true}, 64, 0.6, w)
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

// TestPlaneWideWindow: a window of 300 distinct cells goes through the one
// probe path, its winners named, with the matches a scan finds.
func TestPlaneWideWindow(t *testing.T) {
	wide := make([]uint64, 300)
	for j := range wide {
		wide[j] = uint64(j)<<29 | uint64(j&1)
	}
	var got [2][]Match
	for n, useIndex := range []bool{false, true} {
		e, err := NewEngine(Config{K: 64, Seed: 3, Delta: 0.5, Lambda: 2, WindowFrames: len(wide),
			Order: Sequential, Method: Bit, UseIndex: useIndex})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddQuery(1, wide); err != nil {
			t.Fatal(err)
		}
		if err := e.AddQuery(2, wide[:9]); err != nil {
			t.Fatal(err)
		}
		e.PushFrames(wide)
		if len(e.winners.Cells) < len(wide) || len(e.winners.Row) != 64 {
			t.Fatalf("index=%v: %d cells, %d rows named", useIndex, len(e.winners.Cells), len(e.winners.Row))
		}
		e.PushFrames(wide[:8])
		e.Flush()
		got[n] = e.Matches
	}
	if len(got[0]) == 0 || !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("matches by scan %+v, by index %+v", got[0], got[1])
	}
}

// FuzzPlaneProbe is the plane's exactness harness. For every window the
// plane's index, probed with the winners the window's sketch loop named as
// the engine probes it, must answer — Related with signatures, Pruned,
// Comparisons — as it does when it finds the window's cells by inverting
// the sketch, and as the Build shim's scan of the same queries does; on
// query sketches crafted around the windows' own values (equal, sharing a
// 32-bit prefix, u<<29 and u<<29|1 of a small universe, ≥ p, Empty), on the
// same set saved and restored through VQS1, and after every step of a
// random Add/Remove schedule, windows of some hundred cells included.
func FuzzPlaneProbe(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(3*seed))
	}
	f.Add(int64(42), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, kSel, uSel uint8) {
		newPlaneHarness(seed, kSel, uSel).run(t)
	})
}

// planeHarness is one exactness run: a family, windows over a small
// universe of cells, and the live sketches of the set under test.
type planeHarness struct {
	rng      *rand.Rand
	k        int
	seed     int64
	universe int
	fam      *minhash.Family
	windows  [][]uint64
	sks      []minhash.Sketch
}

func newPlaneHarness(seed int64, kSel, uSel uint8) *planeHarness {
	h := &planeHarness{
		rng:      rand.New(rand.NewSource(seed)),
		k:        []int{8, 64, 130}[kSel%3],
		seed:     seed,
		universe: 1 + int(uSel%24),
	}
	h.fam, _ = minhash.NewFamily(h.k, seed)
	for w := 0; w < 6; w++ {
		h.windows = append(h.windows, h.cells(1+h.rng.Intn(12)))
	}
	wide := h.cells(300)
	for j := range wide[h.universe:] {
		wide[h.universe+j] = uint64(j+h.universe)<<29 | 1
	}
	h.windows = append(h.windows, wide)
	for _, ids := range h.windows {
		h.sks = append(h.sks, h.fam.SketchSet(ids))
	}
	return h
}

// cells draws n cell ids u<<29 and u<<29|1 from the universe.
func (h *planeHarness) cells(n int) []uint64 {
	ids := make([]uint64, n)
	for j := range ids {
		ids[j] = uint64(h.rng.Intn(h.universe))<<29 | uint64(h.rng.Intn(2))
	}
	return ids
}

// crafted returns a sketch whose every value is drawn around some window's
// value at that row.
func (h *planeHarness) crafted() minhash.Sketch {
	real := h.fam.SketchSet(h.cells(1 + h.rng.Intn(6)))
	sk := make(minhash.Sketch, h.k)
	for i := range sk {
		v := h.sks[h.rng.Intn(len(h.sks))][i]
		switch h.rng.Intn(7) {
		case 0: // the window's value itself
		case 1:
			v ^= 1 // the same prefix, another value
		case 2:
			v = v>>29<<29 | uint64(h.rng.Intn(2))
		case 3:
			v = uint64(h.rng.Intn(h.universe))<<29 | uint64(h.rng.Intn(2))
		case 4:
			v = 1<<61 - 1 + uint64(h.rng.Intn(4)) // ≥ p: no element hashes here
		case 5:
			v = minhash.Empty
		default:
			v = real[i]
		}
		sk[i] = v
	}
	return sk
}

// add subscribes query id to qs: crafted (through the restore path) or
// sketched from cell ids.
func (h *planeHarness) add(t *testing.T, qs *QuerySet, id int) {
	t.Helper()
	var err error
	if h.rng.Intn(2) == 0 {
		err = qs.insert([]qindex.Query{{ID: id, Length: 1 + h.rng.Intn(30), Sketch: h.crafted()}})
	} else {
		err = qs.Add(id, h.cells(1+h.rng.Intn(20)))
	}
	if err != nil {
		t.Fatal(err)
	}
}

func (h *planeHarness) run(t *testing.T) {
	orig, err := NewQuerySet(h.k, h.seed, true)
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	for ; next <= 1+h.rng.Intn(10); next++ {
		h.add(t, orig, next)
	}
	h.check(t, "built", orig)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	qs, err := LoadQuerySet(Config{K: h.k, Seed: h.seed, UseIndex: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h.check(t, "restored", qs)

	for step := 0; step < 30; step++ {
		ids := qs.IDs()
		if len(ids) > 0 && h.rng.Intn(5) < 2 {
			if err := qs.Remove(ids[h.rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		} else {
			h.add(t, qs, next)
			next++
		}
		h.check(t, fmt.Sprintf("step %d", step), qs)
	}
}

// check probes the plane's index for every window three ways — with the
// window's winners, by inversion, and through the Build shim — and holds
// the three answers to one another.
func (h *planeHarness) check(t *testing.T, when string, qs *QuerySet) {
	t.Helper()
	v := qs.view()
	if v.index.Len() == 0 {
		return
	}
	shim, err := qindex.Build(sketched(v.index))
	if err != nil {
		t.Fatal(err)
	}
	var w minhash.Winners
	ps := new(qindex.ProbeScratch)
	for n, ids := range h.windows {
		sk := h.fam.SketchWinners(ids, &w)
		if !reflect.DeepEqual(sk, h.sks[n]) || len(w.Row) != h.k {
			t.Fatalf("%s window %d: SketchWinners differs from SketchSet, or names %d of %d rows", when, n, len(w.Row), h.k)
		}
		want := probeString(shim.Probe(sk, 0.5))
		if got := probeString(*v.index.ProbeInto(ps, sk, 0.5, &w)); got != want {
			t.Fatalf("%s window %d (%d cells): probe by winners %s, scan %s", when, n, len(w.Cells), got, want)
		}
		if got := probeString(v.index.Probe(sk, 0.5)); got != want {
			t.Fatalf("%s window %d (%d cells): probe by inversion %s, scan %s", when, n, len(w.Cells), got, want)
		}
	}
}

// probeString renders a probe's output, signatures included, in query-id
// order.
func probeString(po qindex.ProbeOutput) string {
	rel, pruned := slices.Clone(po.Related), slices.Clone(po.Pruned)
	slices.SortFunc(rel, func(a, b qindex.Result) int { return cmp.Compare(a.QID, b.QID) })
	slices.Sort(pruned)
	s := fmt.Sprintf("pruned=%v comparisons=%d", pruned, po.Comparisons)
	for _, r := range rel {
		s += fmt.Sprintf(" q%d:%x/%x", r.QID, r.Sig.Lo, r.Sig.Hi)
	}
	return s
}
