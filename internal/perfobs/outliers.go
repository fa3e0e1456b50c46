// Fleet outlier surfacing: which streams are the slowest, shed the most
// frames, or get backpressured the most — named explicitly via bounded
// top-K sketches instead of per-stream metric labels (a 1024-stream fleet
// would otherwise mint 1024 series per metric).
package perfobs

import "vdsms/internal/telemetry"

var (
	telOutlierSlowestNS = telemetry.Default.Gauge("vcd_fleet_outlier_slowest_ns",
		"Cumulative window-processing nanoseconds of the fleet's slowest tracked stream (space-saving top-K; see /debug/fleet/top for the stream id).")
	telOutlierShed = telemetry.Default.Gauge("vcd_fleet_outlier_shed_frames",
		"Shed-frame count of the fleet's most-shed tracked stream.")
	telOutlierBackpressure = telemetry.Default.Gauge("vcd_fleet_outlier_backpressure_frames",
		"Backpressure-rejected frame count of the fleet's most-rejected tracked stream.")
)

// Outliers groups the three per-lineage heavy-hitter sketches of a
// Collector. Slowest is fed by the collector (cumulative window-total
// nanoseconds per stream over the kept windows: head-sampled or over
// budget), Shed by the degradation layer (frames shed per stream) and
// Backpressure by the fleet's push path (frames rejected per stream).
type Outliers struct {
	Slowest      *TopK
	Shed         *TopK
	Backpressure *TopK
}

// outlierK is the number of streams a collector's sketches track per
// dimension.
const outlierK = 16

func newOutliers(k int) *Outliers {
	return &Outliers{Slowest: NewTopK(k), Shed: NewTopK(k), Backpressure: NewTopK(k)}
}

// ObserveShed records w frames shed for stream (nothing on nil).
func (o *Outliers) ObserveShed(stream string, w int64) {
	if o != nil {
		o.Shed.Observe(stream, w)
		telOutlierShed.Set(float64(o.Shed.Max()))
	}
}

// ObserveBackpressure records w frames rejected with backpressure for
// stream (nothing on nil).
func (o *Outliers) ObserveBackpressure(stream string, w int64) {
	if o != nil {
		o.Backpressure.Observe(stream, w)
		telOutlierBackpressure.Set(float64(o.Backpressure.Max()))
	}
}

// observeSlowest is the span collector's feed (Collector.Keep).
func (o *Outliers) observeSlowest(stream string, ns int64) {
	o.Slowest.Observe(stream, ns)
	telOutlierSlowestNS.Set(float64(o.Slowest.Max()))
}

// Report is the schema-stable /debug/fleet/top JSON shape.
type Report struct {
	Schema       string `json:"schema"` // "vcd_fleet_top/v1"
	K            int    `json:"k"`
	Slowest      []Item `json:"slowest"`      // weight: kept window-total ns
	Shed         []Item `json:"shed"`         // weight: shed frames
	Backpressure []Item `json:"backpressure"` // weight: rejected frames
}

// Report returns the top entries of every dimension, each truncated to
// limit when limit > 0.
func (o *Outliers) Report(limit int) Report {
	return Report{
		Schema:       "vcd_fleet_top/v1",
		K:            o.Slowest.k,
		Slowest:      o.Slowest.Items(limit),
		Shed:         o.Shed.Items(limit),
		Backpressure: o.Backpressure.Items(limit),
	}
}
