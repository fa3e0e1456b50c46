package core

import (
	"math/rand"
	"testing"
)

// idStream generates a synthetic cell-id stream: content c contributes ids
// drawn from an alphabet disjoint from other contents, with temporal
// repetition mimicking real key-frame signatures.
func idStream(rng *rand.Rand, content, frames int) []uint64 {
	base := uint64(content) * 100000
	out := make([]uint64, frames)
	cur := base + uint64(rng.Intn(50))
	for i := range out {
		if rng.Float64() < 0.3 { // shot-like persistence
			cur = base + uint64(rng.Intn(50))
		}
		out[i] = cur
	}
	return out
}

// variant enumerates the method/order/index configurations under test.
type variant struct {
	name     string
	method   Method
	order    Order
	useIndex bool
}

var variants = []variant{
	{"bit-seq-index", Bit, Sequential, true},
	{"bit-seq-noindex", Bit, Sequential, false},
	{"bit-geo-index", Bit, Geometric, true},
	{"bit-geo-noindex", Bit, Geometric, false},
	{"sketch-seq-index", Sketch, Sequential, true},
	{"sketch-seq-noindex", Sketch, Sequential, false},
	{"sketch-geo-index", Sketch, Geometric, true},
	{"sketch-geo-noindex", Sketch, Geometric, false},
}

func newTestEngine(t *testing.T, v variant, k int, delta float64, w int) *Engine {
	t.Helper()
	cfg := Config{
		K: k, Seed: 7, Delta: delta, Lambda: 2, WindowFrames: w,
		Order: v.order, Method: v.method, UseIndex: v.useIndex,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{K: 0, Delta: 0.7, Lambda: 2, WindowFrames: 10},
		{K: 100, Delta: 0, Lambda: 2, WindowFrames: 10},
		{K: 100, Delta: 1.5, Lambda: 2, WindowFrames: 10},
		{K: 100, Delta: 0.7, Lambda: 0.5, WindowFrames: 10},
		{K: 100, Delta: 0.7, Lambda: 2, WindowFrames: 0},
		{K: 100, Delta: 0.7, Lambda: 2, WindowFrames: 10, Order: Order(9)},
		{K: 100, Delta: 0.7, Lambda: 2, WindowFrames: 10, Method: Method(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := Default(10).Validate(); err != nil {
		t.Errorf("Default config invalid: %v", err)
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

func TestDefaultMatchesPaperTable1(t *testing.T) {
	c := Default(10)
	if c.K != 800 || c.Delta != 0.7 || c.Lambda != 2 || c.Method != Bit {
		t.Errorf("Default() = %+v does not match Table I", c)
	}
}

// TestDetectExactCopy: every variant must detect a verbatim copy of a query
// embedded in a longer stream, roughly at the right position.
func TestDetectExactCopy(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			query := idStream(rng, 1, 60)
			bgA := idStream(rng, 2, 100)
			bgB := idStream(rng, 3, 100)

			e := newTestEngine(t, v, 400, 0.6, 10)
			if err := e.AddQuery(1, query); err != nil {
				t.Fatal(err)
			}
			stream := append(append(append([]uint64{}, bgA...), query...), bgB...)
			for _, id := range stream {
				e.PushFrame(id)
			}
			e.Flush()

			if len(e.Matches) == 0 {
				t.Fatal("exact copy not detected")
			}
			found := false
			for _, m := range e.Matches {
				if m.QueryID != 1 {
					t.Errorf("unexpected query id %d", m.QueryID)
				}
				// Copy occupies frames [100,160); detection should start
				// within it (window granularity 10).
				if m.StartFrame >= 90 && m.StartFrame < 160 {
					found = true
				}
				if m.Similarity < 0.6 {
					t.Errorf("reported similarity %g below δ", m.Similarity)
				}
			}
			if !found {
				t.Errorf("no match positioned inside the copy: %+v", e.Matches)
			}
		})
	}
}

// TestDetectReorderedCopy: the headline robustness claim — a copy whose
// windows are permuted must still be detected, because Definition 2 is a
// set similarity.
func TestDetectReorderedCopy(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			query := idStream(rng, 1, 60)
			// Reorder the copy in 3 segments: [40:60) [0:20) [20:40).
			copySeq := append(append(append([]uint64{}, query[40:]...), query[:20]...), query[20:40]...)
			bg := idStream(rng, 2, 80)

			e := newTestEngine(t, v, 400, 0.6, 10)
			if err := e.AddQuery(1, query); err != nil {
				t.Fatal(err)
			}
			stream := append(append(append([]uint64{}, bg...), copySeq...), bg...)
			for _, id := range stream {
				e.PushFrame(id)
			}
			e.Flush()
			if len(e.Matches) == 0 {
				t.Error("temporally reordered copy not detected")
			}
		})
	}
}

// TestNoFalseMatchOnDisjointStream: a stream over a disjoint alphabet must
// produce no matches.
func TestNoFalseMatchOnDisjointStream(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			query := idStream(rng, 1, 60)
			e := newTestEngine(t, v, 400, 0.6, 10)
			if err := e.AddQuery(1, query); err != nil {
				t.Fatal(err)
			}
			for _, id := range idStream(rng, 9, 300) {
				e.PushFrame(id)
			}
			e.Flush()
			if len(e.Matches) != 0 {
				t.Errorf("false matches on disjoint content: %+v", e.Matches)
			}
		})
	}
}

func TestMultipleQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	queries := make([][]uint64, 5)
	for i := range queries {
		queries[i] = idStream(rng, 10+i, 50)
	}
	e := newTestEngine(t, variants[0], 400, 0.6, 10)
	for i, q := range queries {
		if err := e.AddQuery(i+1, q); err != nil {
			t.Fatal(err)
		}
	}
	// Stream: bg, copy of q3, bg, copy of q1, bg.
	var stream []uint64
	stream = append(stream, idStream(rng, 50, 60)...)
	stream = append(stream, queries[2]...)
	stream = append(stream, idStream(rng, 51, 60)...)
	stream = append(stream, queries[0]...)
	stream = append(stream, idStream(rng, 52, 60)...)
	for _, id := range stream {
		e.PushFrame(id)
	}
	e.Flush()
	matched := map[int]bool{}
	for _, m := range e.Matches {
		matched[m.QueryID] = true
	}
	if !matched[3] || !matched[1] {
		t.Errorf("expected matches for queries 3 and 1, got %v", matched)
	}
	if matched[2] || matched[4] || matched[5] {
		t.Errorf("spurious matches: %v", matched)
	}
}

func TestAddRemoveQueryLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q1 := idStream(rng, 1, 50)
	q2 := idStream(rng, 2, 50)
	e := newTestEngine(t, variants[0], 256, 0.6, 10)
	if err := e.AddQuery(1, q1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery(2, q2); err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery(1, q1); err == nil {
		t.Error("duplicate AddQuery succeeded")
	}
	if e.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d", e.NumQueries())
	}
	if err := e.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveQuery(1); err == nil {
		t.Error("double RemoveQuery succeeded")
	}
	// After removal only q2 can match.
	stream := append(append([]uint64{}, q1...), q2...)
	for _, id := range stream {
		e.PushFrame(id)
	}
	e.Flush()
	for _, m := range e.Matches {
		if m.QueryID == 1 {
			t.Error("removed query still matched")
		}
	}
	var got2 bool
	for _, m := range e.Matches {
		if m.QueryID == 2 {
			got2 = true
		}
	}
	if !got2 {
		t.Error("remaining query not matched")
	}
}

func TestRemoveQueryMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := idStream(rng, 1, 50)
	e := newTestEngine(t, variants[0], 256, 0.6, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	for _, id := range idStream(rng, 2, 40) {
		e.PushFrame(id)
	}
	if err := e.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	for _, id := range q {
		e.PushFrame(id)
	}
	e.Flush()
	if len(e.Matches) != 0 {
		t.Errorf("query removed mid-stream still matched: %+v", e.Matches)
	}
}

func TestFlushHandlesPartialWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := idStream(rng, 1, 25)
	e := newTestEngine(t, variants[0], 256, 0.6, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	// Stream ends mid-window; the copy sits at the very end.
	for _, id := range q {
		e.PushFrame(id)
	}
	if e.Stats().Windows != 2 {
		t.Fatalf("windows before Flush = %d, want 2", e.Stats().Windows)
	}
	e.Flush()
	if e.Stats().Windows != 3 {
		t.Fatalf("windows after Flush = %d, want 3", e.Stats().Windows)
	}
	if len(e.Matches) == 0 {
		t.Error("copy spanning a partial final window not detected")
	}
}

func TestSequentialCandidateListBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := idStream(rng, 1, 50) // maxWindows = ceil(2*50/10) = 10
	e := newTestEngine(t, variants[0], 256, 0.5, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	// Stream shares the query's alphabet so candidates persist.
	for _, id := range idStream(rng, 1, 600) {
		e.PushFrame(id)
	}
	if n := len(e.seq); n > 11 {
		t.Errorf("candidate list grew to %d, expiry bound ~10", n)
	}
}

func TestGeometricBucketsLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := idStream(rng, 1, 320) // maxWindows = 64
	v := variant{"bit-geo-index", Bit, Geometric, true}
	e := newTestEngine(t, v, 256, 0.5, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	for _, id := range idStream(rng, 1, 3000) {
		e.PushFrame(id)
	}
	// Binary counter over <= 64 windows: at most ~log2(64)+2 buckets.
	if n := len(e.geo); n > 9 {
		t.Errorf("geometric order stores %d buckets, want O(log)", n)
	}
}

func TestStatsMethodSplit(t *testing.T) {
	// Bit method must do (almost) all candidate work in signature ops;
	// Sketch method in sketch ops.
	rng := rand.New(rand.NewSource(10))
	q := idStream(rng, 1, 60)
	stream := idStream(rng, 1, 400) // same alphabet: plenty of candidates

	run := func(m Method) Stats {
		e := newTestEngine(t, variant{"x", m, Sequential, true}, 256, 0.6, 10)
		if err := e.AddQuery(1, q); err != nil {
			t.Fatal(err)
		}
		for _, id := range stream {
			e.PushFrame(id)
		}
		e.Flush()
		return e.Stats()
	}
	bit := run(Bit)
	sk := run(Sketch)
	if bit.SigOrs == 0 || bit.SigTests == 0 {
		t.Errorf("Bit method recorded no signature ops: %+v", bit)
	}
	if sk.SketchCombines == 0 || sk.SketchCompares == 0 {
		t.Errorf("Sketch method recorded no sketch ops: %+v", sk)
	}
	if sk.SigOrs != 0 {
		t.Errorf("Sketch method performed %d signature ORs", sk.SigOrs)
	}
	if bit.SketchCombines != 0 {
		t.Errorf("Bit/sequential performed %d sketch combines", bit.SketchCombines)
	}
}

func TestPruningReducesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := idStream(rng, 1, 60)
	// Background shares a little content with the query so candidates are
	// born but should be pruned quickly.
	stream := make([]uint64, 0, 500)
	for i := 0; i < 500; i++ {
		if i%10 == 0 {
			stream = append(stream, q[rng.Intn(len(q))])
		} else {
			stream = append(stream, 900000+uint64(rng.Intn(40)))
		}
	}
	run := func(disable bool) Stats {
		cfg := Config{K: 256, Seed: 7, Delta: 0.8, Lambda: 2, WindowFrames: 10,
			Order: Sequential, Method: Bit, UseIndex: true, DisablePrune: disable}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddQuery(1, q); err != nil {
			t.Fatal(err)
		}
		for _, id := range stream {
			e.PushFrame(id)
		}
		e.Flush()
		return e.Stats()
	}
	pruned := run(false)
	unpruned := run(true)
	if pruned.SignatureSum >= unpruned.SignatureSum {
		t.Errorf("pruning did not reduce signatures: %d vs %d",
			pruned.SignatureSum, unpruned.SignatureSum)
	}
}

func TestIndexAndScanAgreeOnMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	queries := make([][]uint64, 8)
	for i := range queries {
		queries[i] = idStream(rng, 20+i, 50)
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 40, 70)...)
	stream = append(stream, queries[4]...)
	stream = append(stream, idStream(rng, 41, 70)...)

	collect := func(useIndex bool) map[int]bool {
		e := newTestEngine(t, variant{"x", Bit, Sequential, useIndex}, 400, 0.6, 10)
		for i, q := range queries {
			if err := e.AddQuery(i+1, q); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range stream {
			e.PushFrame(id)
		}
		e.Flush()
		got := map[int]bool{}
		for _, m := range e.Matches {
			got[m.QueryID] = true
		}
		return got
	}
	withIdx := collect(true)
	without := collect(false)
	if len(withIdx) != len(without) {
		t.Errorf("index %v vs scan %v matched query sets differ", withIdx, without)
	}
	for qid := range withIdx {
		if !without[qid] {
			t.Errorf("query %d matched with index only", qid)
		}
	}
	if !withIdx[5] {
		t.Error("inserted copy of query 5 not detected")
	}
}

func TestEngineEmptyQueriesNoCrash(t *testing.T) {
	e := newTestEngine(t, variants[0], 64, 0.7, 5)
	for i := 0; i < 100; i++ {
		e.PushFrame(uint64(i))
	}
	e.Flush()
	if len(e.Matches) != 0 || e.Stats().Windows != 20 {
		t.Errorf("empty-query engine misbehaved: %+v", e.Stats())
	}
}

func TestOnMatchCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := idStream(rng, 1, 40)
	e := newTestEngine(t, variants[0], 256, 0.6, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	var calls int
	e.OnMatch = func(m Match) {
		calls++
		if m.QueryID != 1 {
			t.Errorf("callback got query %d", m.QueryID)
		}
	}
	for _, id := range q {
		e.PushFrame(id)
	}
	e.Flush()
	if calls != len(e.Matches) || calls == 0 {
		t.Errorf("callback invoked %d times, %d matches recorded", calls, len(e.Matches))
	}
}

func TestAvgSignaturesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := idStream(rng, 1, 50)
	e := newTestEngine(t, variants[0], 256, 0.6, 10)
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	for _, id := range idStream(rng, 1, 300) {
		e.PushFrame(id)
	}
	st := e.Stats()
	if st.AvgSignatures() <= 0 {
		t.Errorf("AvgSignatures = %g on a related stream", st.AvgSignatures())
	}
	if st.AvgCandidates() <= 0 {
		t.Errorf("AvgCandidates = %g", st.AvgCandidates())
	}
	var zero Stats
	if zero.AvgSignatures() != 0 || zero.AvgCandidates() != 0 {
		t.Error("zero stats averages not 0")
	}
}

func TestAddQueryValidation(t *testing.T) {
	e := newTestEngine(t, variants[0], 64, 0.7, 5)
	if err := e.AddQuery(1, nil); err == nil {
		t.Error("empty query accepted")
	}
	if err := e.RemoveQuery(99); err == nil {
		t.Error("removing unknown query succeeded")
	}
}
