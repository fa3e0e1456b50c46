// Facade-level observability: front-end stage timings (decode, extract)
// and the slow-window tracer's wiring to stream time and the log.
package vdsms

import (
	"log"
	"os"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// SlowWindowEnv is the environment variable that arms the slow-window
// tracer when Config.SlowWindow is zero: a Go duration ("250ms", "2s")
// sets the budget directly; "budget" derives it from the stream's
// real-time budget (a w-second basic window must process in under w
// seconds, or the detector falls behind live input).
const SlowWindowEnv = "TELEMETRY_SLOW_WINDOW"

var (
	telStageDecode = telemetry.Default.Histogram("vcd_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, one observation per basic window.",
		telemetry.DurationBuckets, telemetry.L("stage", "decode"))
	telStageExtract = telemetry.Default.Histogram("vcd_stage_duration_seconds",
		"Wall-clock duration of pipeline stages, one observation per basic window.",
		telemetry.DurationBuckets, telemetry.L("stage", "extract"))
	telSlowWindows = telemetry.Default.Counter("vcd_slow_windows_total",
		"Basic windows that exceeded the slow-window budget.")
)

// SlowWindowTrace is the per-stage latency breakdown of one basic window
// that blew its budget; see core.SlowWindowTrace for field semantics.
type SlowWindowTrace = core.SlowWindowTrace

// slowWindowBudget resolves the tracer threshold for this detector:
// Config.SlowWindow when set, else the SlowWindowEnv variable. Zero means
// disabled.
func (cfg Config) slowWindowBudget() time.Duration {
	if cfg.SlowWindow != 0 {
		if cfg.SlowWindow < 0 {
			return 0 // explicit off, overriding the environment
		}
		return cfg.SlowWindow
	}
	v := os.Getenv(SlowWindowEnv)
	switch v {
	case "", "off", "0":
		return 0
	case "budget":
		return time.Duration(cfg.WindowSec * float64(time.Second))
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		log.Printf("vdsms: ignoring %s=%q: want a positive duration or \"budget\"", SlowWindowEnv, v)
		return 0
	}
	return d
}

// armSlowWindow wires the engine's tracer to this detector: traces bump
// the slow-window counter and go to OnSlowWindow when set, else to the log
// as one structured line per offending window.
//
// The tracer is always wired, with the budget held in a runtime-adjustable
// SlowBudget shared across the detector's lineage (NewStream copies it),
// so SetSlowWindow — and POST /debug/slow-window — can arm, retune or
// disarm tracing live. A zero budget keeps the per-window cost at exactly
// the disabled path's (the engine checks the budget before timing).
func (d *Detector) armSlowWindow(eng *core.Engine) {
	if d.slowVar == nil {
		d.slowVar = core.NewSlowBudget(d.cfg.slowWindowBudget())
	}
	eng.SlowVar = d.slowVar
	eng.OnSlowWindow = func(tr SlowWindowTrace) {
		telSlowWindows.Inc()
		if d.OnSlowWindow != nil {
			d.OnSlowWindow(tr)
			return
		}
		log.Printf("SLOW WINDOW stream=[%.1fs,%.1fs) total=%s budget=%s sketch=%s probe=%s combine=%s merge=%s related=%d",
			float64(tr.StartFrame)/d.cfg.KeyFPS, float64(tr.EndFrame)/d.cfg.KeyFPS,
			tr.Total, tr.Budget, tr.Sketch, tr.Probe, tr.Combine, tr.Merge, tr.Related)
	}
}

// SetSlowWindow retunes the slow-window budget at runtime: the new value
// takes effect at the next basic window of every engine sharing this
// detector's lineage (the detector itself plus its NewStream siblings).
// Non-positive disables slow-window tracing.
func (d *Detector) SetSlowWindow(budget time.Duration) {
	if budget < 0 {
		budget = 0
	}
	d.slowVar.Set(budget)
}

// SlowWindowBudget returns the live slow-window budget (zero = disabled).
func (d *Detector) SlowWindowBudget() time.Duration { return d.slowVar.Get() }

// frontEndTimer accumulates the decode and extract spans of the frames
// filling one basic window and flushes them as one observation per stage
// per window — the same granularity the matching-kernel stages report at.
// The most recent flushed window is kept for takeLast, which the overload
// controller's feed combines with the kernel's window duration (flush runs
// at the window-filling frame, immediately before that window is pushed).
type frontEndTimer struct {
	active                bool
	frames                int
	perWindow             int
	decode, extract       time.Duration
	lastDecode, lastExtra time.Duration
	// eng, when set and span-armed, receives the flushed decode/extract
	// spans as the next window's pending front-end stages (flush runs at
	// the window-filling frame, before that window is pushed).
	eng *core.Engine
}

func newFrontEndTimer(perWindow int) frontEndTimer {
	return frontEndTimer{active: telemetry.Enabled(), perWindow: perWindow}
}

func (f *frontEndTimer) add(decode, extract time.Duration) {
	if !f.active {
		return
	}
	f.decode += decode
	f.extract += extract
	f.frames++
	if f.frames >= f.perWindow {
		f.flush()
	}
}

func (f *frontEndTimer) flush() {
	if !f.active || f.frames == 0 {
		return
	}
	f.lastDecode, f.lastExtra = f.decode, f.extract
	if telemetry.Enabled() {
		telStageDecode.ObserveDuration(f.decode)
		telStageExtract.ObserveDuration(f.extract)
	}
	if f.eng != nil && f.eng.PerfArmed() {
		f.eng.AddPendingSpanNS(perfobs.StageDecode, f.decode.Nanoseconds())
		f.eng.AddPendingSpanNS(perfobs.StageExtract, f.extract.Nanoseconds())
	}
	f.decode, f.extract, f.frames = 0, 0, 0
}

// takeLast returns and clears the last flushed window's decode and extract
// spans.
func (f *frontEndTimer) takeLast() (decode, extract time.Duration) {
	decode, extract = f.lastDecode, f.lastExtra
	f.lastDecode, f.lastExtra = 0, 0
	return decode, extract
}
