// Facade-level performance attribution: the knobs CLIs expose for the span
// collector a detector lineage owns — the detector, its NewStream siblings
// and its fleets' streams report into it (Detector.arm, Detector.NewFleet).
// See internal/perfobs for the span model and DESIGN.md §14.
package vdsms

import (
	"encoding/json"
	"io"
	"time"

	"vdsms/internal/perfobs"
)

// Spans returns the lineage's span collector: the kept span ring
// (/debug/spans), the sampling cadence and the outlier sketches
// (/debug/fleet/top).
func (d *Detector) Spans() *perfobs.Collector { return d.spans }

// SetSpanSampling sets the lineage's head-sampling fraction: 0 disables
// it (the default — windows over a slow-window budget are still kept), 1
// samples every basic window, f in (0,1) samples every round(1/f)th window
// deterministically. Applies to every stream and fleet engine of the
// lineage. A positive fraction also arms allocation attribution
// (per-stage allocated-object deltas and a GC snapshot) on every 16th
// sampled span: each reading costs a few runtime metric reads.
func (d *Detector) SetSpanSampling(fraction float64) {
	d.spans.SetSampleFraction(fraction)
	if fraction > 0 {
		d.spans.SetAllocEvery(16)
	}
}

// SetSpanLog streams every span the lineage keeps to w as one JSON line
// each (the -span-log flag of vcdmon/vcdserve). Pass nil to stop. The
// writer is called synchronously from the window path — wrap slow sinks in
// a buffered writer.
func (d *Detector) SetSpanLog(w io.Writer) {
	if w == nil {
		d.spans.SetOnSpan(nil)
		return
	}
	d.spans.SetOnSpan(func(r perfobs.SpanRecord) {
		b, err := json.Marshal(r)
		if err != nil {
			return
		}
		w.Write(append(b, '\n'))
	})
}

// StartProfiler begins continuous CPU+heap profile capture into dir (the
// -profile-dir/-profile-every flags): every period one profile pair is
// written into a bounded ring of keep files per kind. Returns the profiler
// for Stop.
func StartProfiler(dir string, every time.Duration, keep int) (*perfobs.Profiler, error) {
	return perfobs.StartProfiler(dir, every, keep)
}
