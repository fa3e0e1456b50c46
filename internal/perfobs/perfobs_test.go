package perfobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestStageString(t *testing.T) {
	want := map[Stage]string{
		StageDecode:      "decode",
		StageExtract:     "extract",
		StageSketch:      "sketch",
		StageProbe:       "probe",
		StageCombine:     "combine",
		StageMerge:       "merge",
		StageQueueWait:   "queue_wait",
		StageWorkerHop:   "worker_hop",
		StageWindowTotal: "window_total",
	}
	for st, name := range want {
		if got := st.String(); got != name {
			t.Errorf("Stage(%d).String() = %q, want %q", st, got, name)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q, want unknown", got)
	}
}

// offer puts one window's record through c the way an engine does: the
// head draw, then Keep when the window won it. It reports whether it did.
func offer(c *Collector, sp *Span) bool {
	c.Begin(sp)
	if sp.Sampled {
		c.Keep(sp)
	}
	return sp.Sampled
}

func TestSamplingCadence(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(3)
	var sampled int
	for i := 0; i < 30; i++ {
		sp := Span{Stream: "s"}
		sp.NS[StageWindowTotal] = 100
		if offer(c, &sp) {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("every=3 over 30 windows sampled %d, want 10", sampled)
	}
	if got := c.Sampled(); got != 10 {
		t.Fatalf("Sampled() = %d, want 10", got)
	}
}

func TestSampleFractionMapping(t *testing.T) {
	c := NewCollector(4)
	cases := []struct {
		f    float64
		want int64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {2, 1}, {0.5, 2}, {0.01, 100}, {0.001, 1000},
	}
	for _, tc := range cases {
		c.SetSampleFraction(tc.f)
		if got := c.SampleEvery(); got != tc.want {
			t.Errorf("SetSampleFraction(%v) → every=%d, want %d", tc.f, got, tc.want)
		}
	}
}

func TestDisabledBeginIsNilAndAllocFree(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(0)
	var sp Span
	if offer(c, &sp) {
		t.Fatal("Begin with sampling off sampled a window")
	}
	allocs := testing.AllocsPerRun(1000, func() { offer(c, &sp) })
	if allocs != 0 {
		t.Fatalf("disabled Begin allocates %v objects/op, want 0", allocs)
	}
	var nilC *Collector
	nilC.Begin(&sp)
	nilC.Keep(&sp)
	if sp.Sampled || nilC.Armed() {
		t.Fatal("a nil collector sampled")
	}
}

func TestSampledSteadyStateAllocFree(t *testing.T) {
	c := NewCollector(16)
	c.SetSampleEvery(1)
	sp := Span{Stream: "warm"}
	sp.NS[StageWindowTotal] = 1
	allocs := testing.AllocsPerRun(1000, func() {
		sp.Sampled = false
		offer(c, &sp)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampled window allocates %v objects/op, want 0", allocs)
	}
}

// TestKeepTailRecordsBesideTheFold: a record kept for being slow, not
// sampled, lands in the ring, the hook and the slowest-stream tracker, but
// is not counted as sampled.
func TestKeepTailRecordsBesideTheFold(t *testing.T) {
	c := NewCollector(8)
	o := c.Outliers()
	var hooked []SpanRecord
	c.SetOnSpan(func(r SpanRecord) { hooked = append(hooked, r) })
	sp := Span{Stream: "tail", Slow: true}
	sp.NS[StageWindowTotal] = 77
	if offer(c, &sp) {
		t.Fatal("sampling off sampled a window")
	}
	c.Keep(&sp)
	if got := c.Spans(0); len(got) != 1 || got[0].Kept != "slow" || got[0].Stream != "tail" {
		t.Fatalf("ring = %+v, want one slow record", got)
	}
	if len(hooked) != 1 || c.Sampled() != 0 {
		t.Fatalf("hook saw %d, %d sampled; want 1 and 0", len(hooked), c.Sampled())
	}
	if items := o.Slowest.Items(0); len(items) != 1 || items[0].Key != "tail" || items[0].Count != 77 {
		t.Fatalf("slowest = %+v", items)
	}
}

func TestSpanRingOrderAndLimit(t *testing.T) {
	c := NewCollector(4)
	c.SetSampleEvery(1)
	for i := 1; i <= 7; i++ {
		sp := Span{Stream: "s", Window: int64(i)}
		sp.NS[StageWindowTotal] = int64(i)
		offer(c, &sp)
	}
	got := c.Spans(0)
	if len(got) != 4 {
		t.Fatalf("ring of 4 holds %d", len(got))
	}
	for i, r := range got {
		if want := int64(4 + i); r.Window != want {
			t.Fatalf("span[%d].Window = %d, want %d (oldest-first)", i, r.Window, want)
		}
	}
	if got := c.Spans(2); len(got) != 2 || got[0].Window != 6 {
		t.Fatalf("Spans(2) = %+v, want windows 6,7", got)
	}
}

func TestWriteSpansJSONLines(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	sp := Span{Stream: "cam-1", Window: 42, StartFrame: 10, EndFrame: 19, Related: 3, Plane: 7}
	sp.NS[StageSketch] = 1e6
	sp.NS[StageWindowTotal] = 2e6
	offer(c, &sp)

	var buf bytes.Buffer
	if err := c.WriteSpans(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var n int
	for sc.Scan() {
		n++
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not JSON: %v", n, err)
		}
		if r.Stream != "cam-1" || r.Window != 42 || r.Plane != 7 || r.Kept != "sampled" {
			t.Fatalf("record = %+v", r)
		}
		if r.NS["sketch"] != 1e6 || r.NS["window_total"] != 2e6 {
			t.Fatalf("ns map = %+v", r.NS)
		}
		if _, ok := r.NS["queue_wait"]; ok {
			t.Fatal("zero stage exported in ns map")
		}
	}
	if n != 1 {
		t.Fatalf("wrote %d lines, want 1", n)
	}
}

func TestOnSpanHook(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(2)
	var seen []SpanRecord
	c.SetOnSpan(func(r SpanRecord) { seen = append(seen, r) })
	for i := 0; i < 6; i++ {
		sp := Span{Stream: "s"}
		sp.NS[StageWindowTotal] = 5
		offer(c, &sp)
	}
	if len(seen) != 3 {
		t.Fatalf("hook saw %d spans, want 3", len(seen))
	}
}

func TestAllocAttribution(t *testing.T) {
	c := NewCollector(8)
	c.SetSampleEvery(1)
	c.SetAllocEvery(1)
	var sp Span
	c.Begin(&sp)
	if !sp.Sampled || !sp.allocOn {
		t.Fatal("span not alloc-sampled with allocEvery=1")
	}
	sink := make([]*int, 0, 1024)
	for i := 0; i < 1024; i++ {
		v := i
		sink = append(sink, &v)
	}
	// The allocated-objects counter drains from per-P caches lazily, so the
	// observed delta under-counts (the documented approximation); a GC
	// flushes enough that 1024 fresh objects always leave a positive delta.
	runtime.GC()
	sp.AllocMark(StageSketch)
	_ = sink
	sp.NS[StageWindowTotal] = 1
	c.Keep(&sp)
	if n := c.AllocSampled(); n != 1 {
		t.Fatalf("AllocSampled = %d", n)
	}
	got := c.Spans(0)
	if len(got) != 1 || got[0].AllocObjs["sketch"] <= 0 {
		t.Fatalf("sketch alloc delta = %v, want > 0", got[0].AllocObjs)
	}
	// AllocMark on an unsampled span must be a safe no-op.
	(&Span{}).AllocMark(StageProbe)
}

func TestTopKSpaceSaving(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe("a", 10)
	tk.Observe("b", 5)
	tk.Observe("a", 1)
	// "c" displaces the minimum ("b", 5): count = 5+2, err = 5.
	tk.Observe("c", 2)
	items := tk.Items(0)
	if len(items) != 2 {
		t.Fatalf("len = %d", len(items))
	}
	if items[0].Key != "a" || items[0].Count != 11 || items[0].Err != 0 {
		t.Fatalf("items[0] = %+v", items[0])
	}
	if items[1].Key != "c" || items[1].Count != 7 || items[1].Err != 5 {
		t.Fatalf("items[1] = %+v", items[1])
	}
	if tk.Max() != 11 || tk.Len() != 2 {
		t.Fatalf("max=%d len=%d", tk.Max(), tk.Len())
	}
	if got := tk.Items(1); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("Items(1) = %+v", got)
	}
	tk.Observe("x", 0)
	tk.Observe("x", -4)
	if tk.Len() != 2 {
		t.Fatal("non-positive weight inserted a key")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	// Two entries at equal minimum count: eviction must pick the
	// lexicographically smaller key every run.
	for run := 0; run < 8; run++ {
		tk := NewTopK(2)
		tk.Observe("bb", 3)
		tk.Observe("aa", 3)
		tk.Observe("zz", 1)
		items := tk.Items(0)
		keys := map[string]bool{}
		for _, it := range items {
			keys[it.Key] = true
		}
		if !keys["bb"] || !keys["zz"] || keys["aa"] {
			t.Fatalf("run %d evicted wrong key: %+v", run, items)
		}
	}
}

func TestOutliersReport(t *testing.T) {
	o := newOutliers(4)
	o.Slowest.Observe("s1", 100)
	o.ObserveShed("s2", 7)
	o.ObserveBackpressure("s3", 30)
	o.ObserveBackpressure("s4", 10)
	r := o.Report(1)
	if r.Schema != "vcd_fleet_top/v1" || r.K != 4 {
		t.Fatalf("header = %+v", r)
	}
	if len(r.Slowest) != 1 || r.Slowest[0].Key != "s1" {
		t.Fatalf("slowest = %+v", r.Slowest)
	}
	if len(r.Backpressure) != 1 || r.Backpressure[0].Key != "s3" {
		t.Fatalf("backpressure = %+v", r.Backpressure)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatal(err)
	}
	var none *Outliers
	none.ObserveShed("s5", 1)
	none.ObserveBackpressure("s5", 1)
}

func TestCollectorFeedsOutliers(t *testing.T) {
	c := NewCollector(8)
	o := c.Outliers()
	c.SetSampleEvery(1)
	sp := Span{Stream: "slow-stream"}
	sp.NS[StageWindowTotal] = 123456
	offer(c, &sp)
	items := o.Slowest.Items(0)
	if len(items) != 1 || items[0].Key != "slow-stream" || items[0].Count != 123456 {
		t.Fatalf("slowest = %+v", items)
	}
}

func TestProfilerRing(t *testing.T) {
	dir := t.TempDir()
	// Drive capture directly with a short period so the test stays fast;
	// lifecycle (goroutine + ticker + Stop) is covered separately below.
	p := &Profiler{dir: dir, every: 80 * time.Millisecond, keep: 2,
		stop: make(chan struct{}), done: make(chan struct{})}
	if err := p.capture(0); err != nil {
		t.Fatal(err)
	}
	if err := p.capture(1); err != nil {
		t.Fatal(err)
	}
	if err := p.capture(0); err != nil { // ring wraps: slot 0 overwritten
		t.Fatal(err)
	}
	lp, err := StartProfiler(t.TempDir(), time.Minute, 2)
	if err != nil {
		t.Fatal(err)
	}
	lp.Stop()
	for _, name := range []string{"cpu-0.pprof", "cpu-1.pprof", "heap-0.pprof", "heap-1.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if _, err := StartProfiler("", time.Second, 2); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// TestIdleCollectorHoldsNoRing: every detector lineage owns a collector, so
// one that keeps nothing must hold no span ring and no sketch map; the
// first kept span makes the ring at its full size.
func TestIdleCollectorHoldsNoRing(t *testing.T) {
	c := NewCollector(DefaultRing)
	var sp Span
	offer(c, &sp)
	c.Outliers().ObserveShed("s", 0)
	if c.ring != nil || c.outliers.Slowest.items != nil || c.outliers.Shed.items != nil ||
		c.outliers.Backpressure.items != nil {
		t.Fatal("an idle collector allocated its ring or a sketch map")
	}
	sp.NS[StageWindowTotal] = 1
	c.Keep(&sp)
	if len(c.ring) != DefaultRing || c.outliers.Slowest.Len() != 1 {
		t.Fatalf("after one kept span: ring %d, slowest %d; want %d and 1", len(c.ring), c.outliers.Slowest.Len(), DefaultRing)
	}
}
