package core

import (
	"math/rand"
	"testing"
	"time"

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
	stages := map[string]*telemetry.Histogram{
		"sketch": telStageSketch, "probe": telStageProbe,
		"combine": telStageCombine, "merge": telStageMerge,
		"window_total": telStageWindow,
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
	before := telStageWindow.Count()
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if got := telStageWindow.Count() - before; got != 0 {
		t.Errorf("stage histograms observed %d windows with telemetry disabled, want 0", got)
	}
}

// TestSlowWindowTracer arms the tracer with a 1ns budget so every window
// is slow, and checks the per-stage breakdown is sane.
func TestSlowWindowTracer(t *testing.T) {
	eng, wins := telemetryEngine(t)
	var traces []SlowWindowTrace
	eng.SlowWindow = time.Nanosecond
	eng.OnSlowWindow = func(tr SlowWindowTrace) { traces = append(traces, tr) }
	for _, w := range wins {
		eng.PushFrames(w)
	}
	windows := eng.Stats().Windows
	if len(traces) != windows {
		t.Fatalf("%d traces for %d windows", len(traces), windows)
	}
	for i, tr := range traces {
		if tr.Total <= 0 {
			t.Errorf("trace %d: Total = %v, want > 0", i, tr.Total)
		}
		if tr.Budget != time.Nanosecond {
			t.Errorf("trace %d: Budget = %v", i, tr.Budget)
		}
		if tr.EndFrame-tr.StartFrame != eng.cfg.WindowFrames {
			t.Errorf("trace %d: frames [%d,%d) not one window", i, tr.StartFrame, tr.EndFrame)
		}
		if tr.Sketch < 0 || tr.Probe < 0 || tr.Combine < 0 || tr.Merge < 0 {
			t.Errorf("trace %d: negative stage span: %+v", i, tr)
		}
		if sum := tr.Sketch + tr.Probe + tr.Combine + tr.Merge; sum > 10*tr.Total+time.Millisecond {
			t.Errorf("trace %d: stage sum %v wildly exceeds total %v", i, sum, tr.Total)
		}
	}
}

// TestSlowWindowTracerQuietWhenUnderBudget gives every window an hour of
// budget: no trace may fire.
func TestSlowWindowTracerQuietWhenUnderBudget(t *testing.T) {
	eng, wins := telemetryEngine(t)
	fired := 0
	eng.SlowWindow = time.Hour
	eng.OnSlowWindow = func(SlowWindowTrace) { fired++ }
	for _, w := range wins {
		eng.PushFrames(w)
	}
	if fired != 0 {
		t.Errorf("tracer fired %d times under an hour budget", fired)
	}
}

// TestTelemetryDeterminism: with the slow-window tracer armed,
// instrumentation must not perturb matches.
func TestTelemetryDeterminism(t *testing.T) {
	run := func(slow time.Duration) []Match {
		eng, wins := telemetryEngine(t)
		eng.SlowWindow = slow
		eng.OnSlowWindow = func(SlowWindowTrace) {}
		for _, w := range wins {
			eng.PushFrames(w)
		}
		return eng.Matches
	}
	base := run(0)
	got := run(time.Nanosecond)
	if len(got) != len(base) {
		t.Fatalf("%d matches with the tracer armed, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], base[i])
		}
	}
}
