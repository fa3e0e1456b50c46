// The per-window observation record: what an engine measures about each
// basic window and who reads it.
package core

import (
	"sync/atomic"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// Observer receives an engine's per-window record (see Engine.Observe).
// The zero value feeds only the process-wide stage histograms.
type Observer struct {
	// Stream labels the records and the outlier top-K entries.
	Stream string
	// Spans keeps the records worth keeping — those its cadence head-samples
	// and those over Budget — in its ring and outlier top-K. Nil keeps none.
	Spans *perfobs.Collector
	// Budget, when it holds a positive number of nanoseconds, is the
	// slow-window budget: a window whose kernel total exceeds it is counted
	// in vcd_slow_windows_total, kept by Spans and passed to OnSlow. Read
	// once per window, so the engines of a lineage can share one and a Store
	// retunes them all at their next window.
	Budget *atomic.Int64
	// OnSlow receives each over-budget record after it is kept.
	OnSlow func(*perfobs.Span)
	// OnWindow receives every timed record — the overload controller's
	// feed. Setting it times every window, so leave it nil unless a
	// consumer listens.
	OnWindow func(*perfobs.Span)
}

// Observe installs the engine's observer, replacing the previous one. Call
// before pushing frames, from the engine's own goroutine.
func (e *Engine) Observe(o Observer) { e.obs = o }

// Timed is the one timing predicate: it reports whether the next window's
// record will be filled — telemetry is on, the observer has a feed, a
// positive budget or an armed sampling cadence. The front end and the fleet
// ask it before the clock reads they stage for the window.
func (e *Engine) Timed() bool {
	o := &e.obs
	return telemetry.Enabled() || o.OnWindow != nil ||
		o.Budget != nil && o.Budget.Load() > 0 || o.Spans.Armed()
}

// Stage adds ns to an out-of-kernel stage of the window being filled —
// front-end decode/extract of its frames, a fleet pass's queue wait and
// worker hop. The window that consumes the frames carries it; the record
// is cleared after every window, timed or not. Call from the engine's
// owning goroutine only.
func (e *Engine) Stage(st perfobs.Stage, ns int64) { e.rec.NS[st] += ns }
