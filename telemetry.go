// Facade-level observability: the record observer a detector lineage
// shares and the slow-window report in stream time.
package vdsms

import (
	"log"
	"os"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
)

// SlowWindowEnv is the environment variable that sets the slow-window
// budget when Config.SlowWindow is zero: a Go duration ("250ms", "2s")
// sets the budget directly; "budget" derives it from the stream's
// real-time budget (a w-second basic window must process in under w
// seconds, or the detector falls behind live input).
const SlowWindowEnv = "TELEMETRY_SLOW_WINDOW"

// SlowWindowTrace is the record of one basic window that blew its
// slow-window budget, as OnSlowWindow receives it; see perfobs.Span.
type SlowWindowTrace = perfobs.Span

// slowWindowBudget resolves the slow-window budget for this detector:
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

// observer is the record observer a lineage shares: spans kept in the
// process collector, tail capture at the lineage's slow-window budget. arm
// adds this detector's label, report and controller feed; a Fleet's pool
// labels each stream with its id.
func (d *Detector) observer() core.Observer {
	return core.Observer{Spans: perfobs.Default, Budget: d.slow}
}

// slowWindow reports a window over the slow-window budget (core counts and
// keeps it): to OnSlowWindow when set, else as one structured log line in
// stream time.
func (d *Detector) slowWindow(rec *perfobs.Span) {
	if d.OnSlowWindow != nil {
		d.OnSlowWindow(*rec)
		return
	}
	ns := func(st perfobs.Stage) time.Duration { return time.Duration(rec.NS[st]) }
	log.Printf("SLOW WINDOW stream=[%.1fs,%.1fs) total=%s budget=%s decode=%s extract=%s sketch=%s probe=%s combine=%s merge=%s related=%d",
		float64(rec.StartFrame)/d.cfg.KeyFPS, float64(rec.EndFrame)/d.cfg.KeyFPS,
		ns(perfobs.StageWindowTotal), d.SlowWindowBudget(), ns(perfobs.StageDecode), ns(perfobs.StageExtract),
		ns(perfobs.StageSketch), ns(perfobs.StageProbe), ns(perfobs.StageCombine), ns(perfobs.StageMerge), rec.Related)
}

// SetSlowWindow retunes the slow-window budget at runtime: the new value
// takes effect at the next basic window of every engine sharing this
// detector's lineage (the detector itself, its NewStream siblings and its
// fleets' streams). Non-positive disables slow-window capture.
func (d *Detector) SetSlowWindow(budget time.Duration) {
	d.slow.Store(int64(max(budget, 0)))
}

// SlowWindowBudget returns the live slow-window budget (zero = disabled).
func (d *Detector) SlowWindowBudget() time.Duration { return time.Duration(d.slow.Load()) }
