// Telemetry instrumentation of the matching kernel: per-stage latency
// histograms, throughput and work counters and the slow-window tracer.
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
	telCompared = telemetry.Default.Counter("vcd_compared_total",
		"Similarity evaluations (signature tests plus sketch comparisons), across all engines.")

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
func stageHistogram(stage string) *telemetry.Histogram {
	return telemetry.Default.Histogram("vcd_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, one observation per basic window.",
		telemetry.DurationBuckets, telemetry.L("stage", stage))
}

// SlowWindowTrace is the per-stage breakdown handed to OnSlowWindow when a
// basic window exceeds the engine's SlowWindow budget. Merge covers the
// candidate-list work around probe and combine (pre-pass, post-pass, trace
// fold, match emission, stats fold).
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
func (e *Engine) observeWindow(win *windowResult, budget time.Duration, sketch, probe, combine, merge, total time.Duration, sp *perfobs.Span) {
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
		sp.Plane = e.planeVersion
		sp.Set(perfobs.StageSketch, sketch)
		sp.Set(perfobs.StageProbe, probe)
		sp.Set(perfobs.StageCombine, combine)
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
