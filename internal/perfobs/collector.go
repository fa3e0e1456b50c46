// The span collector: deterministic counter-based head sampling, a bounded
// ring the kept records are copied into, and the worker-invariant fold.
package perfobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"vdsms/internal/telemetry"
)

// DefaultRing is the number of kept spans retained for export when the
// collector is built with NewCollector.
const DefaultRing = 2048

var (
	telSpansSampled = telemetry.Default.Counter("vcd_perf_spans_sampled_total",
		"Basic-window spans captured by the performance-attribution sampler.")
	telSpanEvery = telemetry.Default.Gauge("vcd_perf_span_sample_every",
		"Span sampling cadence: every Nth window is sampled (0 = sampling off).")
)

// StageAgg is one stage's slice of an Aggregate.
type StageAgg struct {
	// Count is the number of sampled spans that observed this stage (equal
	// to the sampled-window count for always-on stages, fewer for fleet-only
	// ones). Worker-count invariant.
	Count int64 `json:"count"`
	// SumNS and MaxNS summarise the observed durations (wall-clock; NOT
	// worker-count invariant).
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
}

// Aggregate is the fold of every sampled span so far. The Counts projection
// is deterministic for a fixed frame sequence regardless of worker count or
// scheduling; the duration fields are wall-clock measurements.
type Aggregate struct {
	// Windows counts sampled spans; AllocSampled those that also carried
	// allocation attribution.
	Windows      int64 `json:"windows"`
	AllocSampled int64 `json:"alloc_sampled"`
	// RelatedSum totals the related-query counts of sampled windows.
	RelatedSum int64 `json:"related_sum"`
	// Stages indexes per-stage summaries by Stage.
	Stages [NumStages]StageAgg `json:"stages"`

	// hist holds per-stage duration bucket counts over
	// telemetry.DurationBuckets (+Inf last) for quantile estimation.
	hist [NumStages][]int64
}

// AggCounts is the deterministic projection of an Aggregate: sampled-window
// and per-stage observation counts plus the related-query total, with every
// wall-clock measurement stripped. Two runs of the same frame sequence
// produce byte-identical marshalled AggCounts at any worker count — the
// invariant TestSpanFoldDeterminism pins.
type AggCounts struct {
	Windows      int64            `json:"windows"`
	AllocSampled int64            `json:"alloc_sampled"`
	RelatedSum   int64            `json:"related_sum"`
	StageCounts  [NumStages]int64 `json:"stage_counts"`
}

// Counts returns the deterministic projection.
func (a *Aggregate) Counts() AggCounts {
	c := AggCounts{
		Windows:      a.Windows,
		AllocSampled: a.AllocSampled,
		RelatedSum:   a.RelatedSum,
	}
	for i := range a.Stages {
		c.StageCounts[i] = a.Stages[i].Count
	}
	return c
}

// Quantile estimates the q-quantile of one stage's sampled durations, in
// seconds, from the aggregate's bucket counts (telemetry.DurationBuckets
// layout). Returns 0 with no observations.
func (a *Aggregate) Quantile(st Stage, q float64) float64 {
	if a.hist[st] == nil {
		return 0
	}
	return telemetry.QuantileFromCounts(telemetry.DurationBuckets, a.hist[st], q)
}

// MeanNS returns one stage's mean sampled duration in nanoseconds (0 with
// no observations).
func (a *Aggregate) MeanNS(st Stage) float64 {
	if a.Stages[st].Count == 0 {
		return 0
	}
	return float64(a.Stages[st].SumNS) / float64(a.Stages[st].Count)
}

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

// Collector keeps basic-window spans. One process-wide Default instance
// is shared by every engine; tests build private collectors.
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

	mu   sync.Mutex
	ring []Span // fixed capacity, overwrite-oldest
	head int    // next write position
	len  int
	agg  Aggregate
	// onSpan, when set, receives every kept span (the -span-log hook).
	// Called under mu: keep it cheap and never re-enter the collector.
	onSpan func(SpanRecord)
	// outliers, when set, receives (stream, window-total) observations so
	// the slowest-stream tracker sees every kept window.
	outliers *Outliers

	gc  gcState
	tel bool // publish to the process-wide telemetry registry (Default only)
}

// Default is the process-wide collector every engine reports into.
var Default = newCollector(DefaultRing, true)

// NewCollector builds a private collector (tests, benchmarks) with the
// given export-ring capacity. It does not publish telemetry.
func NewCollector(ring int) *Collector { return newCollector(ring, false) }

func newCollector(ring int, tel bool) *Collector {
	if ring < 1 {
		ring = 1
	}
	c := &Collector{ring: make([]Span, ring), tel: tel}
	for st := range c.agg.hist {
		c.agg.hist[st] = make([]int64, len(telemetry.DurationBuckets)+1)
	}
	return c
}

// SetSampleEvery sets the sampling cadence: 0 disables sampling, 1 samples
// every window, N samples every Nth. Resets the window counter so cadence
// changes take effect deterministically.
func (c *Collector) SetSampleEvery(n int64) {
	if n < 0 {
		n = 0
	}
	c.every.Store(n)
	c.seq.Store(0)
	if c.tel {
		telSpanEvery.Set(float64(n))
	}
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
func (c *Collector) SetAllocEvery(n int64) {
	if n < 0 {
		n = 0
	}
	c.allocEvery.Store(n)
}

// SetOnSpan installs the span-log hook, invoked once per kept span with
// its export record. Pass nil to remove.
func (c *Collector) SetOnSpan(fn func(SpanRecord)) {
	c.mu.Lock()
	c.onSpan = fn
	c.mu.Unlock()
}

// SetOutliers wires a fleet outlier surface: every kept span's window
// total feeds the slowest-stream tracker.
func (c *Collector) SetOutliers(o *Outliers) {
	c.mu.Lock()
	c.outliers = o
	c.mu.Unlock()
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

// Keep copies a filled record into the export ring, hands it to the
// span-log hook and the slowest-stream tracker, and folds it into the
// aggregate when it was head-sampled (tail-kept records would bias the
// fold toward slow windows). A nil collector keeps nothing.
func (c *Collector) Keep(sp *Span) {
	if c == nil {
		return
	}
	if sp.allocOn {
		c.endAlloc(sp)
	}
	c.mu.Lock()
	if sp.Sampled {
		c.agg.Windows++
		c.agg.RelatedSum += int64(sp.Related)
		if sp.allocOn {
			c.agg.AllocSampled++
		}
		for st := Stage(0); st < NumStages; st++ {
			ns := sp.NS[st]
			if ns == 0 && st != StageWindowTotal {
				continue
			}
			a := &c.agg.Stages[st]
			a.Count++
			a.SumNS += ns
			if ns > a.MaxNS {
				a.MaxNS = ns
			}
			observeBucket(c.agg.hist[st], float64(ns)/1e9)
		}
	}
	c.ring[c.head] = *sp
	c.head = (c.head + 1) % len(c.ring)
	if c.len < len(c.ring) {
		c.len++
	}
	if c.onSpan != nil {
		c.onSpan(record(sp))
	}
	out := c.outliers
	c.mu.Unlock()
	if out != nil && sp.NS[StageWindowTotal] > 0 {
		out.observeSlowest(sp.Stream, sp.NS[StageWindowTotal])
	}
	if c.tel && sp.Sampled {
		telSpansSampled.Inc()
	}
}

// observeBucket adds one observation to a DurationBuckets count slice.
func observeBucket(counts []int64, seconds float64) {
	i := 0
	bounds := telemetry.DurationBuckets
	for i < len(bounds) && seconds > bounds[i] {
		i++
	}
	counts[i]++
}

// Aggregate returns a copy of the fold so far.
func (c *Collector) Aggregate() Aggregate {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.agg
	for st := range a.hist {
		a.hist[st] = append([]int64(nil), c.agg.hist[st]...)
	}
	return a
}

// Sampled returns the number of spans sampled so far.
func (c *Collector) Sampled() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Windows
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

// Reset clears the aggregate, the ring and the counters (tests and
// benchmark harnesses; cadence settings survive).
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.agg = Aggregate{}
	for st := range c.agg.hist {
		c.agg.hist[st] = make([]int64, len(telemetry.DurationBuckets)+1)
	}
	c.head, c.len = 0, 0
	c.seq.Store(0)
	c.sampledSeq.Store(0)
}
