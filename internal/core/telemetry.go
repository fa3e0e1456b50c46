// Telemetry instrumentation of the matching kernel: the per-stage latency
// histograms (perfobs.StageSeconds), throughput and work counters, and the
// fan-out of the per-window record to its consumers.
//
// Metric handles are package-level (resolved once against
// telemetry.Default); every engine in the process folds into the same
// series, which is the deployment reality — a server runs one engine per
// concurrent stream and the operator wants the aggregate. Stage timing is
// gated on Engine.Timed (telemetry.Enabled() or a listening observer) so
// the kernel can be benchmarked with instrumentation cold; the counters are
// single atomic adds and stay on unconditionally.
package core

import (
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

	telSlowWindows = telemetry.Default.Counter("vcd_slow_windows_total",
		"Basic windows that exceeded the slow-window budget.")

	// The query plane, as of its last published version (QuerySet.publish).
	telPlaneBytes = telemetry.Default.Gauge("vcd_fleet_plane_bytes",
		"Memory footprint of the shared query plane (index, sketches, pre-filter) — paid once, not per stream.")
	telPlaneVersion = telemetry.Default.Gauge("vcd_fleet_plane_version",
		"Current version of the shared copy-on-write query plane.")
)

// observeWindow completes a timed window's record and hands it to every
// consumer: the stage histograms (when telemetry is on), the observer's
// feed, and — when the window was head-sampled or blew the budget — the
// span collector, then OnSlow for an over-budget one. Called once per timed
// window from processWindow; decode and extract are observed only when the
// front end staged them, so bare and fleet engines leave those series alone.
func (e *Engine) observeWindow(win *windowResult) {
	rec, o := &e.rec, &e.obs
	rec.Stream = o.Stream
	rec.Window = int64(e.stats.Windows)
	rec.StartFrame, rec.EndFrame = win.startFrame, win.endFrame
	rec.Related = len(win.qids)
	rec.Plane = e.planeVersion
	if telemetry.Enabled() {
		h, ns := &perfobs.StageSeconds, &rec.NS
		if ns[perfobs.StageDecode]+ns[perfobs.StageExtract] > 0 {
			observeNS(h[perfobs.StageDecode], ns[perfobs.StageDecode])
			observeNS(h[perfobs.StageExtract], ns[perfobs.StageExtract])
		}
		for st := perfobs.StageSketch; st <= perfobs.StageMerge; st++ {
			observeNS(h[st], ns[st])
		}
		observeNS(h[perfobs.StageWindowTotal], ns[perfobs.StageWindowTotal])
	}
	if o.OnWindow != nil {
		o.OnWindow(rec)
	}
	if o.Budget != nil {
		budget := o.Budget.Load()
		rec.Slow = budget > 0 && rec.NS[perfobs.StageWindowTotal] > budget
	}
	if rec.Slow {
		telSlowWindows.Inc()
	}
	if rec.Sampled || rec.Slow {
		o.Spans.Keep(rec)
	}
	if rec.Slow && o.OnSlow != nil {
		o.OnSlow(rec)
	}
}

// observeNS adds one duration in nanoseconds to a seconds histogram.
func observeNS(h *telemetry.Histogram, ns int64) { h.Observe(float64(ns) / 1e9) }
