package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// kernelFixture is the window kernel's one microbenchmark fixture: the
// Sequential-order, Bit-method engine (K=800, δ=0.7, w=10, query index on)
// with m queries, shaped like the benchmark corpus — a library of shot-like
// cell ids, a stream that is its first half, and queries spliced from three
// runs of 8 consecutive library frames, so windows keep relating to the
// same queries and candidates track many of them for several windows.
// Every 400 frames the stream carries a copy of a query, so candidates also
// report. The engine has already made one pass over the stream, so its
// candidate list is in steady state; window(n) is the stream's n-th basic
// window, cycling.
type kernelFixture struct {
	e      *Engine
	stream []uint64
}

func newKernelFixture(tb testing.TB, m int) kernelFixture {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	library := make([]uint64, 8000)
	cur := uint64(rng.Intn(1500))
	for i := range library {
		if rng.Float64() < 0.3 {
			cur = uint64(rng.Intn(1500))
		}
		library[i] = cur
	}
	ids := make([]int, m)
	cells := make([][]uint64, m)
	third := len(library) / 3
	for i := range cells {
		ids[i] = i + 1
		for s := 0; s < 3; s++ {
			off := s*third + rng.Intn(third-8)
			cells[i] = append(cells[i], library[off:off+8]...)
		}
	}
	stream := append([]uint64(nil), library[:4000]...)
	for at := 200; at+24 <= len(stream); at += 400 {
		copy(stream[at:], cells[rng.Intn(m)])
	}
	cfg := Config{
		K: 800, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.AddQueries(ids, cells); err != nil {
		tb.Fatal(err)
	}
	e.PushFrames(stream)
	if e.Stats().Matches == 0 {
		tb.Fatal("the stream's copies produced no match; the fixture would time an idle kernel")
	}
	return kernelFixture{e: e, stream: stream}
}

func (f kernelFixture) window(n int) []uint64 {
	w := f.e.cfg.WindowFrames
	at := n % (len(f.stream) / w) * w
	return f.stream[at : at+w]
}

// spans attaches a private span collector sampling every n-th window
// (0 = attached with sampling off) and returns it.
func (f kernelFixture) spans(every int64) *perfobs.Collector {
	col := perfobs.NewCollector(perfobs.DefaultRing)
	col.SetSampleEvery(every)
	f.e.Observe(Observer{Stream: "bench", Spans: col})
	return col
}

// kernelVariant is one way of running the fixture: stage telemetry on or
// off, and a span collector attached at a sampling cadence (spanEvery < 0:
// no collector; 0: attached, sampling off; 1: every window).
type kernelVariant struct {
	name      string
	telemetry bool
	spanEvery int64
}

// kernelVariants are the sub-benchmarks of BenchmarkSequentialBit/532: the
// telemetry on/off pair (DESIGN.md, "instrumentation overhead") and, with
// telemetry off so that only the span machinery costs, the 0 % / 1 % /
// 100 % span-sampling ladder.
var kernelVariants = []kernelVariant{
	{"telemetry-on", true, -1},
	{"telemetry-off", false, -1},
	{"spans-0pct", false, 0},
	{"spans-1pct", false, 100},
	{"spans-100pct", false, 1},
}

// benchKernel times one basic window per operation through PushFrames on a
// fresh m-query fixture run as v. Beside ns/op it reports ns/window,
// allocs/window, the queries tracked per window (the candidate walk's
// length, summed over the candidate list) and, when spans were sampled,
// each stage's mean duration over the kept spans (the collector's ring
// holds the last perfobs.DefaultRing) as <stage>-ns/window.
func benchKernel(b *testing.B, m int, v kernelVariant) {
	f := newKernelFixture(b, m)
	var col *perfobs.Collector
	if v.spanEvery >= 0 {
		col = f.spans(v.spanEvery)
	}
	prev := telemetry.SetEnabled(v.telemetry)
	defer telemetry.SetEnabled(prev)
	before := f.e.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f.e.PushFrames(f.window(n))
	}
	b.StopTimer()
	runtime.ReadMemStats(&mem1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
	b.ReportMetric(float64(mem1.Mallocs-mem0.Mallocs)/float64(b.N), "allocs/window")
	b.ReportMetric(float64(f.e.Stats().SignatureSum-before.SignatureSum)/float64(b.N), "tracked/window")
	if col == nil {
		return
	}
	var sum, n [perfobs.NumStages]int64
	for _, r := range col.Spans(0) {
		for st := range sum {
			if ns, ok := r.NS[perfobs.Stage(st).String()]; ok {
				sum[st] += ns
				n[st]++
			}
		}
	}
	for st := range sum {
		if n[st] > 0 {
			b.ReportMetric(float64(sum[st])/float64(n[st]), perfobs.Stage(st).String()+"-ns/window")
		}
	}
}

// BenchmarkSequentialBit is the Sequential-order, Bit-method kernel — probe,
// candidate walk, fresh candidate and match emission — one basic window per
// operation on the kernel fixture, at the query counts of
// fleet-rounds/churn-durable (532, run as every kernelVariant) and
// monitor-manyquery (2 068):
//
//	go test -run '^$' -bench SequentialBit -benchtime 2000x ./internal/core
func BenchmarkSequentialBit(b *testing.B) {
	b.Run("532", func(b *testing.B) {
		for _, v := range kernelVariants {
			b.Run(v.name, func(b *testing.B) { benchKernel(b, 532, v) })
		}
	})
	b.Run("2068", func(b *testing.B) { benchKernel(b, 2068, kernelVariants[0]) }) // telemetry-on
}

// allocsPerWindow measures steady-state allocations per PushFrames window on
// the 532-query fixture, with a span collector attached at sampling cadence
// every (-1 = no collector at all).
func allocsPerWindow(t *testing.T, every int64) float64 {
	t.Helper()
	f := newKernelFixture(t, 532)
	if every >= 0 {
		f.spans(every)
	}
	n := 0
	return testing.AllocsPerRun(400, func() {
		f.e.PushFrames(f.window(n))
		n++
	})
}

// TestWindowAllocBudget pins the window kernel's steady-state allocations,
// averaged over every window of the fixture's stream, the reporting ones
// included. The probe works in the engine's scratch and a fresh candidate
// copies its signatures in one block, so what is left is a handful of
// slices per window (5 at the time of writing, against 770 when every
// related query cost a signature and a map entry or three).
func TestWindowAllocBudget(t *testing.T) {
	if n := allocsPerWindow(t, -1); n > 10 {
		t.Errorf("%.0f allocs per window, budget 10", n)
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

// kernelResult runs benchKernel on the 532-query fixture under the
// benchmark harness.
func kernelResult(v kernelVariant) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) { benchKernel(b, 532, v) })
}

// TestZeroSamplingOverheadGate holds, with TestZeroSamplingSpanCaptureAddsNoAllocs
// (equal allocations), the reasons the spans-0pct rung costs nothing over
// telemetry-off, rather than timing the two: with telemetry off, a
// collector attached at sampling 0 leaves the window untimed — no clock is
// read and no record filled. Arming the cadence times the window again.
// `make perf-smoke` prints the two rungs' ns/op beside this gate.
func TestZeroSamplingOverheadGate(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	f := newKernelFixture(t, 532)
	if f.e.Timed() {
		t.Fatal("a bare engine with telemetry off times its windows")
	}
	col := f.spans(0)
	if f.e.Timed() {
		t.Error("a collector attached at sampling 0 times the window")
	}
	col.SetSampleEvery(1)
	if !f.e.Timed() {
		t.Error("a collector sampling every window leaves it untimed")
	}
}

// TestSpanLadderReportsStageBreakdown: the 100%-sampling rung of the ladder
// must report a span-derived mean for the window-total and probe stages.
func TestSpanLadderReportsStageBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	r := kernelResult(kernelVariants[4]) // spans-100pct
	for _, st := range []perfobs.Stage{perfobs.StageWindowTotal, perfobs.StageProbe} {
		unit := st.String() + "-ns/window"
		if r.Extra[unit] <= 0 {
			t.Errorf("%s = %v on a fully sampled run; want a positive stage mean", unit, r.Extra[unit])
		}
	}
}
