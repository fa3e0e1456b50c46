// Facade-level overload control and fault tolerance: the wiring between
// the monitor loop and internal/degrade. The controller watches full
// ingest latency (front-end decode+extract plus the matching kernel) per
// basic window against Config.RealTimeBudget; when the p99 breaches, the
// shed level rises and the monitor loop starts substituting cheap work for
// expensive work — previous cell ids for low-motion extractions, skipped
// entropy decodes for low-delta frames — recovering when the load clears.
// See DESIGN.md "Overload & graceful degradation".
package vdsms

import (
	"sync/atomic"
	"time"

	"vdsms/internal/degrade"
	"vdsms/internal/feature"
	"vdsms/internal/mpeg"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

var (
	telShedLevel = telemetry.Default.Gauge("vcd_shed_level",
		"Current overload shed level (0 = full fidelity, 3 = maximum shedding).")
	telShedTransitions = telemetry.Default.Counter("vcd_shed_transitions_total",
		"Shed level changes (both directions) decided by the overload controller.")
	telShedExtract = telemetry.Default.Counter("vcd_shed_frames_total",
		"Key frames shed under overload, by pipeline stage.",
		telemetry.L("stage", "extract"))
	telShedDecode = telemetry.Default.Counter("vcd_shed_frames_total",
		"Key frames shed under overload, by pipeline stage.",
		telemetry.L("stage", "decode"))
	telResyncs = telemetry.Default.Counter("vcd_decode_resync_total",
		"Byte-scan resynchronisations after losing frame sync in a monitored stream.")
	telResyncCorrupt = telemetry.Default.Counter("vcd_decode_resync_corrupt_frames_total",
		"Frame slots skipped or substituted due to bitstream corruption.")
	telResyncSkipped = telemetry.Default.Counter("vcd_decode_resync_skipped_bytes_total",
		"Bytes discarded while scanning damaged streams for frame sync.")
	telResyncTruncated = telemetry.Default.Counter("vcd_decode_resync_truncated_total",
		"Monitored streams that ended early by truncation.")
	telReadRetries = telemetry.Default.Counter("vcd_read_retries_total",
		"Transient stream read errors absorbed by retry with backoff.")
)

// OverloadStats is a point-in-time view of the adaptive-ingest machinery:
// the overload control loop (shared across the detector's lineage) plus
// this detector's own shed and fault-recovery counters.
type OverloadStats struct {
	// Armed reports whether the lineage's overload controller runs: its
	// budget is positive (Config.RealTimeBudget or SetRealTimeBudget).
	Armed bool
	// Level is the current shed level, 0..degrade.MaxLevel.
	Level int
	// MaxLevel is the highest level the controller will request.
	MaxLevel int
	// Budget is the per-window real-time budget (zero = loop disabled).
	Budget time.Duration
	// RingP99 is the p99 of the current evidence ring; RunP99/RunMean
	// describe every window since the last level change (steady state).
	RingP99, RunP99, RunMean time.Duration
	// RunWindows counts windows since the last level change; Observed all
	// windows fed to the loop; ShedWindows those observed at level > 0;
	// Transitions the level changes.
	RunWindows, Observed, ShedWindows, Transitions int64
	// ExtractShed and DecodeShed count this detector's shed key frames.
	ExtractShed, DecodeShed int64
	// Resyncs, CorruptFrames, SkippedBytes and Truncated mirror
	// mpeg.ResyncStats, accumulated over this detector's monitored streams.
	Resyncs, CorruptFrames, SkippedBytes, Truncated int64
	// ReadRetries counts transient read errors absorbed with backoff.
	ReadRetries int64
}

// ovlState is the per-detector half of the overload machinery. The
// controller itself is shared by the lineage (like the slow-window
// budget); sampler, motion scorer and damage counters are per stream.
type ovlState struct {
	sampler *degrade.Sampler
	motion  feature.MotionScorer

	lastLevel int32

	extractShed atomic.Int64
	decodeShed  atomic.Int64
	rstats      struct{ resyncs, corrupt, skipped, truncated atomic.Int64 }
	retries     atomic.Int64

	// cost, when set, prices a window for the controller in place of its
	// measured ingest latency; tests set it to a model of the window's work.
	cost func(*perfobs.Span) time.Duration
}

// SetRealTimeBudget retunes the lineage's overload controller at runtime:
// the new budget takes effect at the next observed window of every stream
// of this detector's lineage. Non-positive disables the loop and resets the
// shed level.
func (d *Detector) SetRealTimeBudget(budget time.Duration) { d.ctl.SetBudget(budget) }

// RealTimeBudget returns the live per-window budget (zero = disabled).
func (d *Detector) RealTimeBudget() time.Duration { return d.ctl.Budget() }

// ShedLevel returns the lineage's current shed level (0 while the loop is
// off).
func (d *Detector) ShedLevel() int { return d.ctl.Level() }

// Overload returns the adaptive-ingest statistics: control-loop state
// shared across the lineage plus this detector's shed and fault-recovery
// counters.
func (d *Detector) Overload() OverloadStats {
	cs := d.ctl.Snapshot()
	return OverloadStats{
		Armed:         cs.Budget > 0,
		Level:         cs.Level,
		MaxLevel:      degrade.MaxLevel,
		Budget:        cs.Budget,
		RingP99:       cs.RingP99,
		RunP99:        cs.RunP99,
		RunMean:       cs.RunMean,
		RunWindows:    cs.RunWindows,
		Observed:      cs.Observed,
		ShedWindows:   cs.ShedWindows,
		Transitions:   cs.Transitions,
		ExtractShed:   d.ovl.extractShed.Load(),
		DecodeShed:    d.ovl.decodeShed.Load(),
		Resyncs:       d.ovl.rstats.resyncs.Load(),
		CorruptFrames: d.ovl.rstats.corrupt.Load(),
		SkippedBytes:  d.ovl.rstats.skipped.Load(),
		Truncated:     d.ovl.rstats.truncated.Load(),
		ReadRetries:   d.ovl.retries.Load(),
	}
}

// observeIngestWindow is the controller's feed (the record observer's
// OnWindow, set by arm): the window's full ingest latency, decode and
// extract of its frames plus the kernel's total, read off the one record.
// While the loop is off, Observe is one atomic load.
func (d *Detector) observeIngestWindow(rec *perfobs.Span) {
	total := time.Duration(rec.NS[perfobs.StageDecode] + rec.NS[perfobs.StageExtract] + rec.NS[perfobs.StageWindowTotal])
	if d.ovl.cost != nil {
		total = d.ovl.cost(rec)
	}
	level := int32(d.ctl.Observe(total))
	if prev := d.ovl.lastLevel; level != prev {
		d.ovl.lastLevel = level
		telShedLevel.Set(float64(level))
		telShedTransitions.Inc()
	}
}

// shedArmed reports whether the monitor loop should make shed decisions.
func (d *Detector) shedArmed() bool { return d.cfg.Shed && d.ctl.Budget() > 0 }

// shedExtract is the front end's shed hook (pipeline.next asks it about
// every decoded frame): true substitutes the most recent cell id for this
// frame's extraction. Every decoded frame is scored — the motion tracker
// needs continuous history — then the sampler decides at the current level.
func (d *Detector) shedExtract(dcf *mpeg.DCFrame) bool {
	if !d.shedArmed() {
		return false
	}
	o := d.ovl
	score, ok := o.motion.Score(dcf)
	if o.sampler.KeepExtract(d.ctl.Level(), score, ok) {
		return false
	}
	o.extractShed.Add(1)
	telShedExtract.Inc()
	d.spans.Outliers().ObserveShed(d.perfLabel, 1)
	return true
}

// foldResyncStats folds one Monitor call's decoder damage counters into
// the detector's cumulative totals and the process metrics (the decoder is
// per-call, the counters outlive it).
func (d *Detector) foldResyncStats(rs mpeg.ResyncStats) {
	if rs.Resyncs > 0 {
		d.ovl.rstats.resyncs.Add(rs.Resyncs)
		telResyncs.Add(rs.Resyncs)
	}
	if rs.CorruptFrames > 0 {
		d.ovl.rstats.corrupt.Add(rs.CorruptFrames)
		telResyncCorrupt.Add(rs.CorruptFrames)
	}
	if rs.SkippedBytes > 0 {
		d.ovl.rstats.skipped.Add(rs.SkippedBytes)
		telResyncSkipped.Add(rs.SkippedBytes)
	}
	if rs.Truncated > 0 {
		d.ovl.rstats.truncated.Add(rs.Truncated)
		telResyncTruncated.Add(rs.Truncated)
	}
}
