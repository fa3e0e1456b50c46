package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"vdsms/internal/perfobs"
	"vdsms/internal/qindex"
	"vdsms/internal/telemetry"
	"vdsms/internal/trace"
)

// traceRun pushes determinism_test.go's workload through an engine with
// tracing (and optionally auditing) armed, returning the match stream, the
// journaled events and the provenance records. With onWorker set the
// engine is driven as a fleet worker drives it: in 7-frame pushes on a
// probe scratch it shares with a sibling engine, whose pushes of other
// material come in between.
func traceRun(t *testing.T, v variant, k, auditEvery int, onWorker bool) ([]Match, []trace.Event, []trace.MatchRecord) {
	t.Helper()
	cfg := Config{
		K: k, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: v.order, Method: v.method, UseIndex: v.useIndex,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := trace.NewJournal(1<<17, 512)
	e.Trace(j, "t")
	if auditEvery > 0 {
		e.SetAudit(auditEvery)
	}
	queries, stream := detWorkload()
	for i, ids := range queries {
		if err := e.AddQuery(i+1, ids); err != nil {
			t.Fatal(err)
		}
	}
	if !onWorker {
		e.PushFrames(stream)
		e.Flush()
		return e.Matches, j.Events(trace.Filter{Kind: trace.KindAny}), j.Matches(0)
	}
	sib, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range queries {
		if err := sib.AddQuery(i+1, ids); err != nil {
			t.Fatal(err)
		}
	}
	other := append(append([]uint64(nil), stream[len(stream)/2:]...), stream[:len(stream)/2]...)
	ps := new(qindex.ProbeScratch)
	for i := 0; i < len(stream); i += 7 {
		end := min(i+7, len(stream))
		e.PushFramesOn(ps, stream[i:end])
		sib.PushFramesOn(ps, other[i:end])
	}
	e.Flush()
	return e.Matches, j.Events(trace.Filter{Kind: trace.KindAny}), j.Matches(0)
}

// TestTracingDoesNotPerturbMatches: arming tracing plus the exact-audit
// sampler must leave the match stream byte-identical to an untraced run,
// for every variant.
func TestTracingDoesNotPerturbMatches(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			wantM, _ := detRun(t, v, true)
			gotM, _, _ := traceRun(t, v, 192, 3, false)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("tracing perturbed matches\nuntraced: %+v\ntraced:   %+v", wantM, gotM)
			}
		})
	}
}

// TestTraceWorkerInvariance: the folded event stream and the provenance
// records of an engine run on a fleet worker — pushed in small batches on a
// probe scratch shared with another engine — must equal those of the
// engine run alone: /debug/events does not depend on how the pool
// schedules streams.
func TestTraceWorkerInvariance(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			_, wantE, wantR := traceRun(t, v, 192, 0, false)
			if len(wantE) == 0 {
				t.Fatal("lone run journaled no events")
			}
			_, gotE, gotR := traceRun(t, v, 192, 0, true)
			if !reflect.DeepEqual(gotE, wantE) {
				i := 0
				for i < len(gotE) && i < len(wantE) && gotE[i] == wantE[i] {
					i++
				}
				t.Fatalf("event stream diverges at index %d (alone %d events, on a worker %d)", i, len(wantE), len(gotE))
			}
			if !reflect.DeepEqual(gotR, wantR) {
				t.Errorf("provenance records diverge\nalone:       %+v\non a worker: %+v", wantR, gotR)
			}
		})
	}
}

// TestTraceLifecycleCoverage: the workload's copies must produce the full
// lifecycle vocabulary, and reported events must align with the match
// stream.
func TestTraceLifecycleCoverage(t *testing.T) {
	matches, events, records := traceRun(t, variants[0], 192, 0, false)
	byKind := map[trace.Kind]int{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	for _, k := range []trace.Kind{trace.Born, trace.Extended, trace.Expired, trace.Reported} {
		if byKind[k] == 0 {
			t.Errorf("no %s events journaled", k)
		}
	}
	if len(records) != len(matches) {
		t.Fatalf("%d provenance records for %d matches", len(records), len(matches))
	}
	for i, rec := range records {
		m := matches[i]
		if rec.ID != uint64(i+1) || rec.QueryID != m.QueryID || rec.StartFrame != m.StartFrame ||
			rec.EndFrame != m.EndFrame || rec.Similarity != m.Similarity {
			t.Errorf("record %d does not describe match %d:\nrecord: %+v\nmatch:  %+v", rec.ID, i, rec, m)
		}
		if rec.Order != "sequential" || rec.Method != "bit" {
			t.Errorf("record %d labelled %s/%s", rec.ID, rec.Order, rec.Method)
		}
		if len(rec.Trajectory) == 0 {
			t.Errorf("record %d has no estimate trajectory", rec.ID)
		}
	}
}

// TestAuditReportsWithinBound: with the paper's K=800 and every report
// audited, the estimator error of every emitted match must stay inside
// Theorem 1's deviation bound — the live sketch-accuracy contract.
func TestAuditReportsWithinBound(t *testing.T) {
	for _, v := range []variant{variants[0], variants[6]} { // bit-seq-index, sketch-geo-index
		t.Run(v.name, func(t *testing.T) {
			_, _, records := traceRun(t, v, 800, 1, false)
			if len(records) == 0 {
				t.Fatal("no matches to audit")
			}
			for _, rec := range records {
				if rec.Audit == nil {
					t.Errorf("match %d not audited despite every=1", rec.ID)
					continue
				}
				a := rec.Audit
				if a.Bound <= 0 || a.Bound > 0.1 {
					t.Errorf("match %d bound %v, want Theorem 1's ~0.095 for K=800", rec.ID, a.Bound)
				}
				if a.AbsError > a.Bound || a.Violated {
					t.Errorf("match %d estimator error %v exceeds bound %v (exact=%v estimate=%v)",
						rec.ID, a.AbsError, a.Bound, a.Exact, a.Estimate)
				}
			}
		})
	}
}

// TestTraceDisabledAddsNoAllocations: a recorder armed but switched off
// must leave the steady-state window path with exactly the allocation
// profile of an engine that never heard of tracing.
func TestTraceDisabledAddsNoAllocations(t *testing.T) {
	build := func(armDisabled bool) (*Engine, [][]uint64) {
		cfg := Config{
			K: 128, Seed: 9, Delta: 0.7, Lambda: 2, WindowFrames: 10,
			Method: Bit, Order: Sequential, UseIndex: true,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for id := 1; id <= 20; id++ {
			if err := e.AddQuery(id, idStream(rng, id, 40)); err != nil {
				t.Fatal(err)
			}
		}
		wins := make([][]uint64, 8)
		for w := range wins {
			wins[w] = idStream(rng, 50+w, cfg.WindowFrames)
		}
		for i := 0; i < 32; i++ {
			e.PushFrames(wins[i%len(wins)])
		}
		if armDisabled {
			r := e.Trace(trace.NewJournal(64, 8), "alloc")
			r.SetEnabled(false)
		}
		return e, wins
	}
	measure := func(e *Engine, wins [][]uint64) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			e.PushFrames(wins[i%len(wins)])
			i++
		})
	}
	eOff, wOff := build(false)
	eDis, wDis := build(true)
	base := measure(eOff, wOff)
	disabled := measure(eDis, wDis)
	if disabled > base {
		t.Errorf("disabled tracer allocates: %.2f allocs/window vs %.2f without a tracer", disabled, base)
	}
}

// TestSlowBudgetRuntimeAdjust: engines sharing one budget read it once per
// window, so a Store retunes every one of them at its next window — and a
// positive budget alone makes a window timed when telemetry is off.
func TestSlowBudgetRuntimeAdjust(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	cfg := Config{K: 64, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: 10}
	budget := new(atomic.Int64)
	slow := 0
	var engs [2]*Engine
	for i := range engs {
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Observe(Observer{Budget: budget, OnSlow: func(*perfobs.Span) { slow++ }})
		engs[i] = e
	}
	window := idStream(rand.New(rand.NewSource(3)), 1, cfg.WindowFrames)
	for _, step := range []struct {
		budget time.Duration
		slow   int
	}{{0, 0}, {time.Nanosecond, 2}, {time.Hour, 0}, {time.Nanosecond, 2}, {0, 0}} {
		budget.Store(int64(step.budget))
		if timed := engs[0].Timed(); timed != (step.budget > 0) {
			t.Errorf("budget %v: Timed() = %v", step.budget, timed)
		}
		slow = 0
		for _, e := range engs {
			e.PushFrames(window)
		}
		if slow != step.slow {
			t.Errorf("budget %v: %d slow windows, want %d", step.budget, slow, step.slow)
		}
	}
}

// TestSequentialBitExpiryJournal: under the Bit method a candidate stops
// tracking a query as Expired — not Dropped — when it has outgrown the
// query's λL bound, whether the window relates the query or not, and when
// the query has left the plane; only a live query the window does not
// relate is Dropped.
func TestSequentialBitExpiryJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, other := idStream(rng, 1, 10), idStream(rng, 50, 10)
	// kinds runs the stream through a traced engine subscribed to q as
	// query 1 (λL = 2 windows), calling between before window n+1, and
	// returns query 1's Expired and Dropped events by candidate start.
	kinds := func(stream []uint64, n int, between func(*Engine)) map[int32]trace.Kind {
		t.Helper()
		e, err := NewEngine(Config{K: 64, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
			Order: Sequential, Method: Bit, UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		j := trace.NewJournal(1<<12, 64)
		e.Trace(j, "t")
		if err := e.AddQuery(1, q); err != nil {
			t.Fatal(err)
		}
		e.PushFrames(stream[:10*n])
		between(e)
		e.PushFrames(stream[10*n:])
		got := map[int32]trace.Kind{}
		for _, ev := range j.Events(trace.Filter{QID: 1, Kind: trace.KindAny}) {
			if ev.Kind == trace.Expired || ev.Kind == trace.Dropped {
				got[ev.Start] = ev.Kind
			}
		}
		return got
	}
	same := func(*Engine) {}
	for name, c := range map[string]struct {
		got, want map[int32]trace.Kind
	}{
		// Window 3 relates q: the candidate from frame 0 has outgrown λL.
		"related": {kinds(slices.Concat(q, q, q), 0, same), map[int32]trace.Kind{0: trace.Expired}},
		// Window 3 does not relate q: the candidate from frame 0 has
		// outgrown λL, the one from frame 10 has not.
		"unrelated": {kinds(slices.Concat(q, q, other), 0, same), map[int32]trace.Kind{0: trace.Expired, 10: trace.Dropped}},
		// q leaves the plane before window 3.
		"removed": {kinds(slices.Concat(q, q, other), 2, func(e *Engine) {
			if err := e.RemoveQuery(1); err != nil {
				t.Fatal(err)
			}
		}), map[int32]trace.Kind{0: trace.Expired, 10: trace.Expired}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s: query 1 left its candidates as %v, want %v", name, c.got, c.want)
		}
	}
}
