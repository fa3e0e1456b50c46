// Facade-level observability: the record observer a detector lineage
// shares and the slow-window report in stream time.
package vdsms

import (
	"log"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
)

// SlowWindowTrace is the record of one basic window that blew its
// slow-window budget, as OnSlowWindow receives it; see perfobs.Span.
type SlowWindowTrace = perfobs.Span

// slowWindowBudget resolves the slow-window budget for this detector:
// Config.SlowWindow, where zero or negative means disabled.
func (cfg Config) slowWindowBudget() time.Duration { return max(cfg.SlowWindow, 0) }

// observer is the record observer a lineage shares: spans kept in the
// lineage's collector, tail capture at its slow-window budget. arm
// adds this detector's label, report and controller feed; a Fleet's pool
// labels each stream with its id.
func (d *Detector) observer() core.Observer {
	return core.Observer{Spans: d.spans, Budget: d.slow}
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
