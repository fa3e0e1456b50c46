package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
	"vdsms/internal/snapshot"
)

// Config.PreFilter is ignored since the query index reads only the posting
// lists of each window's winning cells: setting it must change nothing —
// Matches (order included), Stats totals down to ProbeComparisons, and
// checkpoint bytes — across churn and through checkpoint/restore. The
// field, and these tests' name for the plane's exactness, go together.

// prefSchedule is a deterministic workload with mid-stream subscription
// churn: queries added up front, some removed and re-added while frames
// flow, converging on a final set.
type prefSchedule struct {
	cfg     Config
	queries [][]uint64 // 1-based ids
	frames  []uint64
	// ops[i] runs after frame i: +id adds query id back, −id removes it.
	ops map[int][]int
}

func newPrefSchedule(seed int64, method Method, order Order) *prefSchedule {
	rng := rand.New(rand.NewSource(seed))
	ps := &prefSchedule{
		cfg: Config{
			K: 96, Seed: rng.Int63(), Delta: 0.5, Lambda: 2, WindowFrames: 8,
			Order: order, Method: method, UseIndex: true,
		},
		ops: map[int][]int{},
	}
	for q := 0; q < 6; q++ {
		ps.queries = append(ps.queries, idStream(rng, q+1, rng.Intn(30)+20))
	}
	for i := 0; i < 260; i++ {
		ps.frames = append(ps.frames, uint64(rng.Intn(6)+1)*100000+uint64(rng.Intn(40)))
	}
	for q, at := range []int{20, 70, 130, 190} {
		copy(ps.frames[at:], ps.queries[q%len(ps.queries)])
	}
	// Churn: remove 3, 5; re-add 3; remove 1. Final set {2,3,4,6}.
	ps.ops[50] = []int{-3}
	ps.ops[90] = []int{-5}
	ps.ops[140] = []int{+3}
	ps.ops[200] = []int{-1}
	return ps
}

// run replays the schedule on one engine configuration.
func (ps *prefSchedule) run(t *testing.T, preFilter bool) ([]Match, Stats) {
	t.Helper()
	cfg := ps.cfg
	cfg.PreFilter = preFilter
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range ps.queries {
		if err := e.AddQuery(i+1, ids); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range ps.frames {
		e.PushFrame(f)
		for _, op := range ps.ops[i] {
			if op > 0 {
				err = e.AddQuery(op, ps.queries[op-1])
			} else {
				err = e.RemoveQuery(-op)
			}
			if err != nil {
				t.Fatalf("frame %d op %d: %v", i, op, err)
			}
		}
	}
	e.Flush()
	return e.Matches, e.Stats()
}

// TestPreFilterOutputEquivalence: PreFilter must be invisible in the
// output — same matches, same stats — for every method/order combination,
// under subscription churn.
func TestPreFilterOutputEquivalence(t *testing.T) {
	for _, v := range []struct {
		name   string
		method Method
		order  Order
	}{
		{"bit-seq", Bit, Sequential},
		{"bit-geo", Bit, Geometric},
		{"sketch-seq", Sketch, Sequential},
		{"sketch-geo", Sketch, Geometric},
	} {
		t.Run(v.name, func(t *testing.T) {
			ps := newPrefSchedule(11, v.method, v.order)
			wantM, wantS := ps.run(t, false)
			if len(wantM) == 0 {
				t.Fatal("baseline run found no matches; workload too weak")
			}
			gotM, gotS := ps.run(t, true)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("pre-filter changed matches\noff: %+v\non:  %+v", wantM, gotM)
			}
			if gotS != wantS {
				t.Errorf("pre-filter changed stats\noff: %+v\non:  %+v", wantS, gotS)
			}
		})
	}
}

// TestPreFilterChurnFuzz: random interleaved Add/Remove schedules, applied
// identically with PreFilter set and clear, must keep outputs equal — the
// churn path adds and drops postings, and drops a cell whose last posting
// goes.
func TestPreFilterChurnFuzz(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		ps := newPrefSchedule(int64(400+trial), Bit, Sequential)
		// Overwrite the fixed ops with a random schedule over ids 1..6,
		// tracking membership so every op is valid on both engines.
		ps.ops = map[int][]int{}
		in := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}
		for i := 10; i < len(ps.frames); i += rng.Intn(25) + 8 {
			id := rng.Intn(6) + 1
			if in[id] {
				ps.ops[i] = append(ps.ops[i], -id)
				in[id] = false
			} else {
				ps.ops[i] = append(ps.ops[i], +id)
				in[id] = true
			}
		}
		wantM, wantS := ps.run(t, false)
		gotM, gotS := ps.run(t, true)
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("trial %d: churned pre-filter run diverges\noff: %+v\non:  %+v", trial, wantM, gotM)
		}
		if gotS != wantS {
			t.Fatalf("trial %d: stats diverge\noff: %+v\non:  %+v", trial, wantS, gotS)
		}
	}
}

// TestPreFilterSnapshotRoundTrip: an engine checkpointed mid-stream and
// restored — with PreFilter set or clear on either side — must finish the
// stream with output byte-identical to the uninterrupted run. PreFilter is
// not in the snapshot fingerprint; the postings are rebuilt from the
// restored sketches.
func TestPreFilterSnapshotRoundTrip(t *testing.T) {
	ps := newPrefSchedule(21, Bit, Sequential)
	uninterruptedM, uninterruptedS := ps.run(t, true)
	if len(uninterruptedM) == 0 {
		t.Fatal("workload produced no matches")
	}

	ckpt := map[bool][]byte{} // checkpoint bytes by the tier of the run that wrote them
	for _, rc := range []struct {
		name              string
		ckptPF, restorePF bool
	}{
		{"on-to-on", true, true},
		{"on-to-off", true, false},
		{"off-to-on", false, true},
	} {
		t.Run(rc.name, func(t *testing.T) {
			cfg := ps.cfg
			cfg.PreFilter = rc.ckptPF
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, ids := range ps.queries {
				if err := e.AddQuery(i+1, ids); err != nil {
					t.Fatal(err)
				}
			}
			push := func(e *Engine, from, to int) {
				for i := from; i < to; i++ {
					e.PushFrame(ps.frames[i])
					for _, op := range ps.ops[i] {
						if op > 0 {
							err = e.AddQuery(op, ps.queries[op-1])
						} else {
							err = e.RemoveQuery(-op)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			cut := 110 // mid-stream, after the first removal
			push(e, 0, cut)

			// Through the real codec, so the postings' absence from the
			// durable form is exercised, not just ExportState.
			var buf bytes.Buffer
			if err := snapshot.Write(&buf, &snapshot.Checkpoint{Engine: *e.ExportState()}); err != nil {
				t.Fatal(err)
			}
			ckpt[rc.ckptPF] = buf.Bytes()
			dec, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			cfg.PreFilter = rc.restorePF
			e2, err := RestoreEngine(cfg, &dec.Engine)
			if err != nil {
				t.Fatal(err)
			}
			push(e2, cut, len(ps.frames))
			e2.Flush()

			gotM := append(append([]Match(nil), e.Matches...), e2.Matches...)
			if !reflect.DeepEqual(gotM, uninterruptedM) {
				t.Errorf("matches diverge from uninterrupted run\nwant: %+v\ngot:  %+v", uninterruptedM, gotM)
			}
			if got := e2.Stats(); got != uninterruptedS {
				t.Errorf("stats diverge\nwant: %+v\ngot:  %+v", uninterruptedS, got)
			}
		})
	}
	if !bytes.Equal(ckpt[true], ckpt[false]) {
		t.Error("checkpoint bytes differ with PreFilter set and clear")
	}
}

// TestPreFilterValidation: PreFilter no longer constrains a configuration,
// with or without the index; what the one probe path needs is a window
// whose cells fit 16-bit winner indices.
func TestPreFilterValidation(t *testing.T) {
	cfg := Default(10)
	cfg.PreFilter = true
	for _, useIndex := range []bool{false, true} {
		cfg.UseIndex = useIndex
		if err := cfg.Validate(); err != nil {
			t.Errorf("PreFilter with UseIndex=%v rejected: %v", useIndex, err)
		}
	}
	cfg.WindowFrames = maxWindowFrames
	if err := cfg.Validate(); err != nil {
		t.Errorf("a window of %d frames rejected: %v", cfg.WindowFrames, err)
	}
	cfg.WindowFrames++
	if err := cfg.Validate(); err == nil {
		t.Errorf("a window of %d frames accepted", cfg.WindowFrames)
	}
}

// TestPreFilterWideWindow: a window of 300 distinct cells goes through the
// one probe path, its winners named, with the matches a scan finds.
func TestPreFilterWideWindow(t *testing.T) {
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

// FuzzPreFilterMask is the plane's exactness harness, named for the row
// mask it checked until the index itself became exact. For every window the
// plane's index, probed with the winners the window's sketch loop named as
// the engine probes it, must answer — Related with signatures, Pruned,
// Comparisons — as it does when it finds the window's cells by inverting
// the sketch, and as the Build shim's scan of the same queries does; on
// query sketches crafted around the windows' own values (equal, sharing a
// 32-bit prefix, u<<29 and u<<29|1 of a small universe, ≥ p, Empty), on the
// same set saved and restored through VQS1, and after every step of a
// random Add/Remove schedule, windows of some hundred cells included.
func FuzzPreFilterMask(f *testing.F) {
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
