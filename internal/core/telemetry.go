// Telemetry instrumentation of the matching kernel: per-stage latency
// histograms, throughput counters, per-shard comparison counters and the
// slow-window tracer.
//
// Metric handles are package-level (resolved once against
// telemetry.Default); every engine in the process folds into the same
// series, which is the deployment reality — a server runs one engine per
// concurrent stream and the operator wants the aggregate. Stage timing is
// gated on telemetry.Enabled() (or an armed slow-window tracer) so the
// kernel can be benchmarked with instrumentation cold; the counters are
// single atomic adds and stay on unconditionally.
package core

import (
	"strconv"
	"time"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

var (
	telWindows = telemetry.Default.Counter("vcd_windows_processed_total",
		"Basic windows processed by the matching kernel, across all engines.")
	telFrames = telemetry.Default.Counter("vcd_frames_total",
		"Key frames consumed by the matching kernel, across all engines.")
	telMatches = telemetry.Default.Counter("vcd_matches_total",
		"Matches reported, across all engines (WAL replay included).")
	telProbeRelated = telemetry.Default.Counter("vcd_probe_related_total",
		"Related queries surfaced by window probes.")
	telProbePruned = telemetry.Default.Counter("vcd_probe_pruned_total",
		"Lemma 2 prunes, during probing and candidate extension.")

	telPrefilterProbes = telemetry.Default.Counter("vcd_prefilter_row_probes_total",
		"Rows of windows the pre-filter masked (K per masked window).")
	telPrefilterRejects = telemetry.Default.Counter("vcd_prefilter_row_rejects_total",
		"Rows the pre-filter rejected before any Hash-Query index work.")
	telPrefilterFP = telemetry.Default.Counter("vcd_prefilter_false_positives_total",
		"Rows the pre-filter admitted whose index search found nothing; zero by construction.")
	telPrefilterBytes = telemetry.Default.Gauge("vcd_prefilter_bytes",
		"Memory footprint of the pre-filter's cell table, in bytes.")
	telPrefilterBytesPerQuery = telemetry.Default.Gauge("vcd_prefilter_bytes_per_query",
		"Pre-filter bytes divided by registered queries — the tier's marginal memory cost.")

	telStageSketch  = stageHistogram("sketch")
	telStageProbe   = stageHistogram("probe")
	telStageCombine = stageHistogram("combine")
	telStageMerge   = stageHistogram("merge")
	telStageWindow  = stageHistogram("window_total")
)

// stageHistogram registers one series of the per-stage latency histogram.
// probe and combine observe the slowest shard of the window (the critical
// path); sketch, merge and window_total are serial spans.
func stageHistogram(stage string) *telemetry.Histogram {
	return telemetry.Default.Histogram("vcd_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, one observation per basic window (slowest shard for fanned-out stages).",
		telemetry.DurationBuckets, telemetry.L("stage", stage))
}

// shardComparedCounter registers the per-shard comparison counter for one
// query shard id. Engines with equal worker counts share series — the
// service-level aggregate across streams.
func shardComparedCounter(shard int) *telemetry.Counter {
	return telemetry.Default.Counter("vcd_shard_compared_total",
		"Similarity evaluations (signature tests plus sketch comparisons) per query shard, across all engines.",
		telemetry.L("shard", strconv.Itoa(shard)))
}

// SlowWindowTrace is the per-stage breakdown handed to OnSlowWindow when a
// basic window exceeds the engine's SlowWindow budget. probe and combine
// are the slowest shard's spans; merge covers the serial spine work around
// the shard fork (pre-pass, post-pass, deterministic match merge, stats
// fold).
type SlowWindowTrace struct {
	// StartFrame and EndFrame delimit the offending window in key frames.
	StartFrame, EndFrame int
	// Related is the number of related queries the probe surfaced.
	Related int
	// Budget is the threshold that was exceeded.
	Budget time.Duration
	// Total is the window's full processing time; the stage fields below
	// decompose it (up to scheduler noise between clock reads).
	Total, Sketch, Probe, Combine, Merge time.Duration
}

// observeWindow publishes one processed window's stage spans into the
// histograms, finishes the window's perf span (when sampled), and, when
// the window blew its budget, hands the breakdown to the tracer. Called
// once per window from processWindow, only when timing was armed. budget
// is the slow-window threshold resolved for this window (the
// runtime-adjustable SlowVar when wired, else SlowWindow).
func (e *Engine) observeWindow(win *windowResult, budget time.Duration, sketch, merge, total time.Duration, sp *perfobs.Span) {
	var probeNS, combineNS int64
	for _, s := range e.shards {
		if s.d.probeNS > probeNS {
			probeNS = s.d.probeNS
		}
		if s.d.combineNS > combineNS {
			combineNS = s.d.combineNS
		}
	}
	probe := time.Duration(probeNS)
	combine := time.Duration(combineNS)
	if telemetry.Enabled() {
		telStageSketch.ObserveDuration(sketch)
		telStageProbe.ObserveDuration(probe)
		telStageCombine.ObserveDuration(combine)
		telStageMerge.ObserveDuration(merge)
		telStageWindow.ObserveDuration(total)
	}
	if sp != nil {
		sp.Window = int64(e.stats.Windows)
		sp.StartFrame = win.startFrame
		sp.EndFrame = win.endFrame
		sp.Related = win.relatedLen()
		sp.Workers = e.nshards
		sp.Plane = e.planeVersion
		sp.Set(perfobs.StageSketch, sketch)
		sp.SetNS(perfobs.StageProbe, probeNS)
		sp.SetNS(perfobs.StageCombine, combineNS)
		sp.Set(perfobs.StageMerge, merge)
		sp.Set(perfobs.StageWindowTotal, total)
		e.perf.End(sp)
	}
	if budget > 0 && total > budget && e.OnSlowWindow != nil {
		e.OnSlowWindow(SlowWindowTrace{
			StartFrame: win.startFrame,
			EndFrame:   win.endFrame,
			Related:    win.relatedLen(),
			Budget:     budget,
			Total:      total,
			Sketch:     sketch,
			Probe:      probe,
			Combine:    combine,
			Merge:      merge,
		})
	}
}
