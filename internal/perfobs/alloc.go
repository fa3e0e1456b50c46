// Allocation and GC attribution: per-stage allocated-object deltas from
// runtime/metrics and GC pause totals from runtime.ReadMemStats, taken only
// on alloc-sampled spans so the cost is bounded by Collector.SetAllocEvery.
package perfobs

import (
	"runtime"
	"runtime/metrics"

	"vdsms/internal/telemetry"
)

const allocObjsMetric = "/gc/heap/allocs:objects"

// allocStages are the stages that receive AllocMark brackets in the kernel.
// Decode/extract run frame-at-a-time on the facade side and queue stages
// allocate nothing, so only the kernel stages and the window total carry
// allocation deltas.
var allocStages = [...]Stage{StageSketch, StageProbe, StageMerge, StageWindowTotal}

var telAllocsPerWindow = func() [NumStages]*telemetry.Gauge {
	var g [NumStages]*telemetry.Gauge
	for _, st := range allocStages {
		g[st] = telemetry.Default.Gauge("vcd_perf_allocs_per_window",
			"Mean heap objects allocated per basic window, by pipeline stage (alloc-sampled spans only; probe includes the combine fork).",
			telemetry.L("stage", st.String()))
	}
	return g
}()

var (
	telGCPauseTotal = telemetry.Default.Gauge("vcd_perf_gc_pause_total_seconds",
		"Cumulative process GC stop-the-world pause time (read at alloc-sample cadence).")
	telGCPauseLast = telemetry.Default.Gauge("vcd_perf_gc_pause_last_seconds",
		"Most recent GC stop-the-world pause (read at alloc-sample cadence).")
	telGCCycles = telemetry.Default.Gauge("vcd_perf_gc_cycles_total",
		"Completed GC cycles (read at alloc-sample cadence).")
)

// readAllocObjs returns the process-wide cumulative allocated-object count.
func readAllocObjs() uint64 {
	var s [1]metrics.Sample
	s[0].Name = allocObjsMetric
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// AllocMark attributes the heap objects allocated since the previous mark
// (or since Begin) to the given stage. No-op on spans that were not
// alloc-sampled, so kernel call sites need no gating. The counter is
// process-wide: concurrent streams bleed into each other's deltas; at
// single-stream load the attribution is exact.
func (sp *Span) AllocMark(st Stage) {
	if !sp.allocOn {
		return
	}
	cur := readAllocObjs()
	sp.AllocObjs[st] += int64(cur - sp.lastAllocObjs)
	sp.lastAllocObjs = cur
}

// beginAlloc arms allocation attribution on a freshly sampled span.
func (c *Collector) beginAlloc(sp *Span) {
	sp.allocOn = true
	sp.beginAlloc = readAllocObjs()
	sp.lastAllocObjs = sp.beginAlloc
}

// publishAlloc sets the per-window allocation mean gauges from a kept
// alloc-sampled span's fold and refreshes the GC gauges.
func publishAlloc(means *[NumStages]float64) {
	for _, st := range allocStages {
		telAllocsPerWindow[st].Set(means[st])
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	telGCPauseTotal.Set(float64(ms.PauseTotalNs) / 1e9)
	if ms.NumGC > 0 {
		telGCPauseLast.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
	telGCCycles.Set(float64(ms.NumGC))
}
