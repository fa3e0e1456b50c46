package benchkit

import (
	"math"
	"os"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// allocsPerWindow measures steady-state allocations per PushFrames window
// over the shared workload, optionally with a span collector attached at
// sampling cadence `every` (-1 = no collector at all).
func allocsPerWindow(t *testing.T, every int) float64 {
	t.Helper()
	eng, wins, err := WindowWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if every >= 0 {
		col := perfobs.NewCollector(perfobs.DefaultRing)
		col.SetSampleEvery(int64(every))
		eng.Observe(core.Observer{Stream: "bench", Spans: col})
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		eng.PushFrames(wins[i%len(wins)])
		i++
	})
}

// TestWindowAllocBudget pins the window kernel's steady-state allocations on
// the shared 200-query workload. The probe works in the engine's scratch and a
// fresh candidate copies its signatures in one block, so what is left is a
// handful of maps and slices per window (12 at the time of writing, against
// 770 when every related query cost a signature and a map entry or three).
func TestWindowAllocBudget(t *testing.T) {
	if n := allocsPerWindow(t, -1); n > 40 {
		t.Errorf("%.0f allocs per window, budget 40", n)
	}
}

// TestZeroSamplingSpanCaptureAddsNoAllocs pins the hot-path contract: a
// collector attached with sampling off must add exactly zero allocations
// per window compared to no collector — the disabled path is one atomic
// load.
func TestZeroSamplingSpanCaptureAddsNoAllocs(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	base := allocsPerWindow(t, -1)
	armed := allocsPerWindow(t, 0)
	if d := armed - base; math.Abs(d) > 0.01 {
		t.Errorf("zero-sampling span capture adds %.2f allocs/window (base %.1f, armed %.1f), want 0",
			d, base, armed)
	}
}

// TestZeroSamplingOverheadGate is the perf-smoke CI gate: the window
// kernel with a zero-sampling collector attached must run within 2% of
// the telemetry-off baseline. Wall-clock gates are noisy, so the check
// passes if any of three attempts lands inside the envelope; it is only
// run when PERF_SMOKE=1 (the `make perf-smoke` target).
func TestZeroSamplingOverheadGate(t *testing.T) {
	if os.Getenv("PERF_SMOKE") == "" {
		t.Skip("set PERF_SMOKE=1 to run the overhead gate")
	}
	const tolerance = 0.02
	var worst float64
	for attempt := 0; attempt < 3; attempt++ {
		base, err := BenchWindow("base", false)
		if err != nil {
			t.Fatal(err)
		}
		armed, err := BenchWindowSpans("spans-off", 0)
		if err != nil {
			t.Fatal(err)
		}
		if armed.AllocsPerOp > base.AllocsPerOp {
			t.Fatalf("zero-sampling path allocates more: %d vs %d allocs/op",
				armed.AllocsPerOp, base.AllocsPerOp)
		}
		overhead := armed.NsPerOp/base.NsPerOp - 1
		t.Logf("attempt %d: baseline %.0f ns/op, zero-sampling %.0f ns/op, overhead %+.2f%%",
			attempt, base.NsPerOp, armed.NsPerOp, overhead*100)
		if overhead <= tolerance {
			return
		}
		if overhead > worst {
			worst = overhead
		}
	}
	t.Errorf("zero-sampling overhead %.2f%% above the %.0f%% gate in all attempts",
		worst*100, tolerance*100)
}

// TestSpanLadderReportsStageBreakdown: the 100%-sampling bench variant
// must carry a span-derived per-stage mean breakdown including the
// window-total stage.
func TestSpanLadderReportsStageBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	r, err := BenchWindowSpans("spans-all", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpanEvery != 1 {
		t.Errorf("SpanEvery = %d", r.SpanEvery)
	}
	if len(r.StageNS) == 0 {
		t.Fatal("no stage breakdown on a fully sampled run")
	}
	if r.StageNS["window_total"] <= 0 {
		t.Errorf("window_total mean = %v", r.StageNS["window_total"])
	}
	if r.StageNS["probe"] <= 0 {
		t.Errorf("probe mean = %v; probe should dominate this workload", r.StageNS["probe"])
	}
}
