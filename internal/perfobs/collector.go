// The span collector: deterministic counter-based head sampling and a
// bounded ring the kept records are copied into.
package perfobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"vdsms/internal/telemetry"
)

// DefaultRing is the number of kept spans a detector lineage's collector
// retains for export.
const DefaultRing = 2048

var (
	telSpansSampled = telemetry.Default.Counter("vcd_perf_spans_sampled_total",
		"Basic-window spans captured by the performance-attribution sampler.")
	telSpanEvery = telemetry.Default.Gauge("vcd_perf_span_sample_every",
		"Span sampling cadence: every Nth window is sampled (0 = sampling off).")
)

// SpanRecord is the schema-stable JSON shape of one exported span — the
// /debug/spans and -span-log line format (schema "vcd_span/v1"). Kept says
// why the record was kept: "sampled" (head sampling), "slow" (over the
// slow-window budget) or "sampled,slow".
type SpanRecord struct {
	Schema     string           `json:"schema"`
	Stream     string           `json:"stream"`
	Window     int64            `json:"window"`
	StartFrame int              `json:"startFrame"`
	EndFrame   int              `json:"endFrame"`
	Related    int              `json:"related"`
	Plane      uint64           `json:"plane"`
	Kept       string           `json:"kept"`
	NS         map[string]int64 `json:"ns"`
	AllocObjs  map[string]int64 `json:"allocObjs,omitempty"`
}

// record converts a span to its export shape. Stages that were never
// observed are omitted from the maps so records stay compact.
func record(sp *Span) SpanRecord {
	r := SpanRecord{
		Schema:     "vcd_span/v1",
		Stream:     sp.Stream,
		Window:     sp.Window,
		StartFrame: sp.StartFrame,
		EndFrame:   sp.EndFrame,
		Related:    sp.Related,
		Plane:      sp.Plane,
		Kept:       "sampled",
		NS:         make(map[string]int64, NumStages),
	}
	switch {
	case sp.Slow && sp.Sampled:
		r.Kept = "sampled,slow"
	case sp.Slow:
		r.Kept = "slow"
	}
	for st := Stage(0); st < NumStages; st++ {
		if ns := sp.NS[st]; ns != 0 {
			r.NS[st.String()] = ns
		}
	}
	if sp.allocOn {
		r.AllocObjs = make(map[string]int64, 4)
		for st := Stage(0); st < NumStages; st++ {
			if n := sp.AllocObjs[st]; n != 0 {
				r.AllocObjs[st.String()] = n
			}
		}
	}
	return r
}

// Collector keeps basic-window spans: the records its cadence head-samples
// and those over a slow-window budget, in a ring and the outlier top-K. A
// detector lineage owns one and shares it with its streams and fleets.
type Collector struct {
	// every is the sampling cadence: 0 = off, N ≥ 1 = every Nth timed
	// window (counter-based, hence deterministic for a fixed push sequence).
	every atomic.Int64
	// allocEvery sub-samples alloc attribution: every Nth *sampled* span
	// also brackets stages with allocation reads (0 = never).
	allocEvery atomic.Int64
	// seq counts windows offered to Begin while sampling is armed.
	seq atomic.Int64
	// sampledSeq counts sampled spans (drives allocEvery).
	sampledSeq atomic.Int64

	mu sync.Mutex
	// ring holds the kept records, overwrite-oldest, made at size
	// ringCap on the first Keep, so a collector that keeps nothing holds
	// none.
	ring    []Span
	ringCap int
	head    int // next write position
	len     int
	// sampled counts the head-sampled records kept; alloc holds the
	// alloc-sampled ones and their per-stage object totals (the per-window
	// mean gauges).
	sampled int64
	alloc   int64
	objSums [NumStages]int64
	// onSpan, when set, receives every kept span (the -span-log hook).
	// Called under mu: keep it cheap and never re-enter the collector.
	onSpan func(SpanRecord)
	// outliers receives every kept window's (stream, window-total).
	outliers *Outliers
}

// NewCollector builds a collector retaining up to ring kept spans, with
// its own outlier sketches. Sampling starts off.
func NewCollector(ring int) *Collector {
	return &Collector{ringCap: max(ring, 1), outliers: newOutliers(outlierK)}
}

// SetSampleEvery sets the sampling cadence: 0 disables sampling, 1 samples
// every window, N samples every Nth. Resets the window counter so cadence
// changes take effect deterministically.
func (c *Collector) SetSampleEvery(n int64) {
	n = max(n, 0)
	c.every.Store(n)
	c.seq.Store(0)
	telSpanEvery.Set(float64(n))
}

// SetSampleFraction is SetSampleEvery for a fraction: 0 disables, f in
// (0, 1] samples every round(1/f)th window.
func (c *Collector) SetSampleFraction(f float64) {
	switch {
	case f <= 0:
		c.SetSampleEvery(0)
	case f >= 1:
		c.SetSampleEvery(1)
	default:
		c.SetSampleEvery(int64(1/f + 0.5))
	}
}

// SampleEvery returns the current cadence (0 = off).
func (c *Collector) SampleEvery() int64 { return c.every.Load() }

// Armed reports whether any window could be sampled, so windows must be
// timed (false for a nil collector).
func (c *Collector) Armed() bool { return c != nil && c.every.Load() > 0 }

// SetAllocEvery sets the allocation-attribution sub-sample: every Nth
// sampled span also carries per-stage alloc deltas and a GC reading
// (0 = never). Alloc sampling costs a few runtime metric reads per sampled
// window, so production deployments keep N ≥ 8.
func (c *Collector) SetAllocEvery(n int64) { c.allocEvery.Store(max(n, 0)) }

// SetOnSpan installs the span-log hook, invoked once per kept span with
// its export record. Pass nil to remove.
func (c *Collector) SetOnSpan(fn func(SpanRecord)) {
	c.mu.Lock()
	c.onSpan = fn
	c.mu.Unlock()
}

// Outliers returns the collector's outlier sketches: the slowest streams,
// fed by every kept window, and the most-shed and most-backpressured ones,
// fed by their owners. Nil for a nil collector.
func (c *Collector) Outliers() *Outliers {
	if c == nil {
		return nil
	}
	return c.outliers
}

// Begin is the head-sampling draw for the window sp is about to record:
// every Nth call marks it Sampled, and every Mth sampled one also gets
// allocation attribution (SetAllocEvery). With sampling off it is one
// atomic load; a nil collector samples nothing.
func (c *Collector) Begin(sp *Span) {
	if c == nil {
		return
	}
	every := c.every.Load()
	if every == 0 || c.seq.Add(1)%every != 0 {
		return
	}
	sp.Sampled = true
	if ae := c.allocEvery.Load(); ae > 0 && c.sampledSeq.Add(1)%ae == 0 {
		c.beginAlloc(sp)
	}
}

// Keep copies a filled record into the export ring and hands it to the
// span-log hook and the slowest-stream tracker. A nil collector keeps
// nothing.
func (c *Collector) Keep(sp *Span) {
	if c == nil {
		return
	}
	if sp.allocOn {
		sp.AllocObjs[StageWindowTotal] = int64(readAllocObjs() - sp.beginAlloc)
	}
	c.mu.Lock()
	if c.ring == nil {
		c.ring = make([]Span, c.ringCap)
	}
	c.ring[c.head] = *sp
	c.head = (c.head + 1) % len(c.ring)
	c.len = min(c.len+1, len(c.ring))
	if sp.Sampled {
		c.sampled++
	}
	var means [NumStages]float64
	if sp.allocOn {
		c.alloc++
		for _, st := range allocStages {
			c.objSums[st] += sp.AllocObjs[st]
			means[st] = float64(c.objSums[st]) / float64(c.alloc)
		}
	}
	if c.onSpan != nil {
		c.onSpan(record(sp))
	}
	c.mu.Unlock()
	if sp.NS[StageWindowTotal] > 0 {
		c.outliers.observeSlowest(sp.Stream, sp.NS[StageWindowTotal])
	}
	if sp.Sampled {
		telSpansSampled.Inc()
	}
	if sp.allocOn {
		publishAlloc(&means)
	}
}

// Sampled returns the number of head-sampled spans kept so far.
func (c *Collector) Sampled() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampled
}

// AllocSampled returns the number of kept spans that carried allocation
// attribution.
func (c *Collector) AllocSampled() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alloc
}

// Spans returns up to limit retained spans as export records, oldest first
// (limit ≤ 0 returns all retained).
func (c *Collector) Spans(limit int) []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.len
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]SpanRecord, 0, n)
	// Oldest retained span sits at head when the ring is full, else at 0;
	// emit the most recent n in chronological order.
	start := c.head - n
	if start < 0 {
		start += len(c.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, record(&c.ring[(start+i)%len(c.ring)]))
	}
	return out
}

// WriteSpans writes up to limit retained spans as JSON lines, oldest first.
func (c *Collector) WriteSpans(w io.Writer, limit int) error {
	for _, r := range c.Spans(limit) {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}
