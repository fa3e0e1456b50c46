package core

import (
	"math/rand"
	"reflect"
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
