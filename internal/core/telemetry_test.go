package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// telemetryEngine builds a small engine with a few overlapping queries so
// windows do real probe/combine work.
func telemetryEngine(t *testing.T) (*Engine, [][]uint64) {
	t.Helper()
	cfg := Config{
		K: 64, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 4,
		Method: Bit, Order: Sequential, UseIndex: true,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 12; id++ {
		ids := make([]uint64, 16)
		for i := range ids {
			ids[i] = uint64(rng.Intn(40))
		}
		if err := eng.AddQuery(id, ids); err != nil {
			t.Fatal(err)
		}
	}
	wins := make([][]uint64, 8)
	for w := range wins {
		win := make([]uint64, cfg.WindowFrames)
		for i := range win {
			win[i] = uint64(rng.Intn(40))
		}
		wins[w] = win
	}
	return eng, wins
}

// TestTelemetryCounters verifies the engine folds its work into the
// process-wide registry: windows, frames and comparisons all advance by the
// amounts the engine's own Stats report.
func TestTelemetryCounters(t *testing.T) {
	eng, wins := telemetryEngine(t)
	before := readAll(t)
	for _, w := range wins {
		eng.PushFrames(w)
	}
	after := readAll(t)
	st := eng.Stats()

	if got := after["windows"] - before["windows"]; got != float64(st.Windows) {
		t.Errorf("vcd_windows_processed_total advanced by %v, want %d", got, st.Windows)
	}
	if got := after["frames"] - before["frames"]; got != float64(st.Frames) {
		t.Errorf("vcd_frames_total advanced by %v, want %d", got, st.Frames)
	}
	if got := after["compared"] - before["compared"]; got != float64(st.Compared) {
		t.Errorf("vcd_compared_total advanced by %v, want %d", got, st.Compared)
	}
}

// readAll snapshots the counters this test asserts deltas on (the
// registry is process-wide and shared with other tests in the package).
func readAll(t *testing.T) map[string]float64 {
	t.Helper()
	return map[string]float64{
		"windows":  float64(telWindows.Value()),
		"frames":   float64(telFrames.Value()),
		"compared": float64(telCompared.Value()),
	}
}

// TestStageHistogramsObserve checks every stage series gains exactly one
// observation per processed window while telemetry is enabled.
func TestStageHistogramsObserve(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	eng, wins := telemetryEngine(t)
	stages := map[string]*telemetry.Histogram{}
	for _, st := range []perfobs.Stage{perfobs.StageSketch, perfobs.StageProbe,
		perfobs.StageCombine, perfobs.StageMerge, perfobs.StageWindowTotal} {
		stages[st.String()] = perfobs.StageSeconds[st]
	}
	before := make(map[string]int64, len(stages))
	for name, h := range stages {
		before[name] = h.Count()
	}
	for _, w := range wins {
		eng.PushFrames(w)
	}
	windows := int64(eng.Stats().Windows)
	if windows == 0 {
		t.Fatal("no windows processed")
	}
	for name, h := range stages {
		if got := h.Count() - before[name]; got != windows {
			t.Errorf("stage %s observed %d windows, want %d", name, got, windows)
		}
	}
}

// TestStageTimingDisabled checks SetEnabled(false) actually stops the
// histograms (the benchmark-overhead configuration).
func TestStageTimingDisabled(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	eng, wins := telemetryEngine(t)
	window := perfobs.StageSeconds[perfobs.StageWindowTotal]
	before := window.Count()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if got := window.Count() - before; got != 0 {
		t.Errorf("stage histograms observed %d windows with telemetry disabled, want 0", got)
	}
}

// slowObserver arms tail capture at budget and collects the records
// handed to OnSlow.
func slowObserver(budget time.Duration, into *[]perfobs.Span) Observer {
	b := new(atomic.Int64)
	b.Store(int64(budget))
	return Observer{Budget: b, OnSlow: func(rec *perfobs.Span) { *into = append(*into, *rec) }}
}

// TestSlowWindowTracer arms tail capture with a 1ns budget so every window
// is slow, and checks each window's record is sane.
func TestSlowWindowTracer(t *testing.T) {
	eng, wins := telemetryEngine(t)
	var recs []perfobs.Span
	eng.Observe(slowObserver(time.Nanosecond, &recs))
	before := telSlowWindows.Value()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	windows := eng.Stats().Windows
	if len(recs) != windows {
		t.Fatalf("%d records for %d windows", len(recs), windows)
	}
	if got := telSlowWindows.Value() - before; got != int64(windows) {
		t.Errorf("vcd_slow_windows_total moved by %d, want %d", got, windows)
	}
	for i, rec := range recs {
		total := rec.NS[perfobs.StageWindowTotal]
		if total <= 0 || !rec.Slow || rec.Sampled {
			t.Errorf("record %d: total %d ns, slow %v, sampled %v", i, total, rec.Slow, rec.Sampled)
		}
		if rec.Window != int64(i+1) || rec.EndFrame-rec.StartFrame != eng.cfg.WindowFrames {
			t.Errorf("record %d: window %d, frames [%d,%d) not one window", i, rec.Window, rec.StartFrame, rec.EndFrame)
		}
		var sum int64
		for _, st := range []perfobs.Stage{perfobs.StageSketch, perfobs.StageProbe, perfobs.StageCombine, perfobs.StageMerge} {
			if rec.NS[st] < 0 {
				t.Errorf("record %d: negative %s span: %+v", i, st, rec.NS)
			}
			sum += rec.NS[st]
		}
		if sum > 10*total+int64(time.Millisecond) {
			t.Errorf("record %d: stage sum %d ns wildly exceeds total %d ns", i, sum, total)
		}
	}
}

// TestSlowWindowTracerQuietWhenUnderBudget gives every window an hour of
// budget: no record may be reported.
func TestSlowWindowTracerQuietWhenUnderBudget(t *testing.T) {
	eng, wins := telemetryEngine(t)
	var recs []perfobs.Span
	eng.Observe(slowObserver(time.Hour, &recs))
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if len(recs) != 0 {
		t.Errorf("%d windows reported slow under an hour budget", len(recs))
	}
}

// TestTelemetryDeterminism: with tail capture armed, instrumentation must
// not perturb matches.
func TestTelemetryDeterminism(t *testing.T) {
	run := func(slow time.Duration) []Match {
		eng, wins := telemetryEngine(t)
		var recs []perfobs.Span
		eng.Observe(slowObserver(slow, &recs))
		for _, w := range wins {
			eng.PushFrames(w)
		}
		return eng.Matches
	}
	base := run(0)
	got := run(time.Nanosecond)
	if len(got) != len(base) {
		t.Fatalf("%d matches with tail capture armed, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], base[i])
		}
	}
}

// TestPendingSpanConsumedOncePerWindow: staged front-end/fleet stage
// nanoseconds must land on exactly the next window's record and never smear
// into later windows, sampled or not.
func TestPendingSpanConsumedOncePerWindow(t *testing.T) {
	col := perfobs.NewCollector(64)
	col.SetSampleEvery(1)
	e, err := NewEngine(Config{K: 64, Seed: 1, Delta: 0.5, Lambda: 2, WindowFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(Observer{Stream: "s", Spans: col})
	rng := rand.New(rand.NewSource(7))
	if err := e.AddQuery(1, idStream(rng, 1, 12)); err != nil {
		t.Fatal(err)
	}
	e.Stage(perfobs.StageQueueWait, 12345)
	e.PushFrames(idStream(rng, 9, 12)) // three basic windows
	e.Flush()
	spans := col.Spans(0)
	if len(spans) < 2 {
		t.Fatalf("sampled %d spans, want >= 2", len(spans))
	}
	if got := spans[0].NS["queue_wait"]; got != 12345 {
		t.Errorf("first window queue_wait = %d, want 12345", got)
	}
	for i, sp := range spans[1:] {
		if ns, ok := sp.NS["queue_wait"]; ok {
			t.Errorf("window %d inherited stale queue_wait = %d", i+1, ns)
		}
	}
}
