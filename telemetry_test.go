package vdsms

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vdsms/internal/mpeg"
	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// scrapeDefault renders and re-parses the process-wide registry — the same
// structural validation a Prometheus server would perform.
func scrapeDefault(t *testing.T) *telemetry.Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return exp
}

// settleGoroutines waits for the goroutine count to return to base,
// failing with a full stack dump if it does not — transient runtime
// goroutines (GC, finalizers) need the retry loop.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, monitor started with %d\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMonitorCancelNoLeakWritesCheckpoint cancels a checkpointed
// monitor mid-stream and checks the two shutdown guarantees: every
// goroutine exits, and a final checkpoint lands in the directory so the
// next Resume starts from the cancellation point instead of replaying the
// whole WAL.
func TestMonitorCancelNoLeakWritesCheckpoint(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()

	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 71, 10))); err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	slow := &throttledReader{data: clip(t, 810, 60), delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := det.MonitorContext(ctx, slow); err != context.DeadlineExceeded {
		t.Fatalf("MonitorContext = %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, base)

	ckpt := filepath.Join(cfg.CheckpointDir, CheckpointFileName)
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("no final checkpoint after cancellation: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("final checkpoint is empty")
	}

	// The checkpoint is live: a resume restores the subscription and keeps
	// monitoring.
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	det2, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det2.Close()
	if !found || det2.NumQueries() != 1 {
		t.Fatalf("Resume after cancel: found=%v queries=%d, want true/1", found, det2.NumQueries())
	}
	if _, err := det2.Monitor(bytes.NewReader(clip(t, 811, 20))); err != nil {
		t.Fatalf("monitoring after resume: %v", err)
	}
}

// TestMonitorCancelWithoutCheckpointing is the same cancellation with
// durability off: still no leak, still the context error, and no state
// files appear anywhere.
func TestMonitorCancelWithoutCheckpointing(t *testing.T) {
	cfg := testConfig()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 72, 10))); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	slow := &throttledReader{data: clip(t, 812, 60), delay: 2 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := det.MonitorContext(ctx, slow); err != context.DeadlineExceeded {
		t.Fatalf("MonitorContext = %v, want context.DeadlineExceeded", err)
	}
	settleGoroutines(t, base)
}

// TestWALTelemetryObserved checks the durability-path histograms move when
// a checkpointed monitor runs: every pushed batch is appended and fsynced,
// and the lineage's checkpoints (its start, the size rule, the final
// flush) time their atomic writes.
func TestWALTelemetryObserved(t *testing.T) {
	before := scrapeDefault(t)

	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 73, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 813, 30))); err != nil {
		t.Fatal(err)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}

	after := scrapeDefault(t)
	for _, name := range []string{
		"vcd_wal_append_duration_seconds_count",
		"vcd_wal_fsync_duration_seconds_count",
		"vcd_checkpoint_write_duration_seconds_count",
	} {
		a, ok := after.Value(name)
		if !ok {
			t.Errorf("scrape is missing %s", name)
			continue
		}
		b, _ := before.Value(name)
		if a-b <= 0 {
			t.Errorf("%s moved by %g, want > 0", name, a-b)
		}
	}
	a, _ := after.Value("vcd_wal_frames_total")
	b, _ := before.Value("vcd_wal_frames_total")
	if a-b != 60 { // 30 s at 2 key fps, every frame journalled
		t.Errorf("vcd_wal_frames_total moved by %g, want 60", a-b)
	}
}

// slowWindowsTotal reads vcd_slow_windows_total off a scrape.
func slowWindowsTotal(t *testing.T) float64 {
	t.Helper()
	v, _ := scrapeDefault(t).Value("vcd_slow_windows_total")
	return v
}

// TestSlowWindowTracerFacade arms tail capture through Config.SlowWindow
// with an impossible budget, so every basic window of a monitored stream
// reaches OnSlowWindow with its record, front-end stages included.
func TestSlowWindowTracerFacade(t *testing.T) {
	cfg := testConfig()
	cfg.SlowWindow = time.Nanosecond
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 74, 10))); err != nil {
		t.Fatal(err)
	}
	var traces []SlowWindowTrace
	det.OnSlowWindow = func(tr SlowWindowTrace) { traces = append(traces, tr) }
	slowBefore := slowWindowsTotal(t)
	if _, err := det.Monitor(bytes.NewReader(clip(t, 814, 30))); err != nil {
		t.Fatal(err)
	}
	if len(traces) != det.Stats().Windows {
		t.Fatalf("1 ns budget reported %d of %d windows", len(traces), det.Stats().Windows)
	}
	if got := slowWindowsTotal(t) - slowBefore; got != float64(len(traces)) {
		t.Errorf("vcd_slow_windows_total moved by %g, want %d", got, len(traces))
	}
	for _, tr := range traces {
		if !tr.Slow || tr.NS[perfobs.StageWindowTotal] <= 0 || tr.NS[perfobs.StageDecode] <= 0 ||
			tr.NS[perfobs.StageExtract] <= 0 || tr.EndFrame <= tr.StartFrame {
			t.Fatalf("malformed record %+v", tr)
		}
	}
}

// TestFrontEndTimeRidesItsWindow: the front end stages each frame's decode
// and extract time on the engine, so the window that consumes the frames
// carries it even when a Monitor call starts mid-window, and the overload
// controller sees exactly that record's decode + extract + kernel total.
// Monitor flushes its trailing partial window, so a call starts mid-window
// after Resume replays a log that ends mid-window: here a crashed run that
// logged five frames of a ten-frame window. The second five come through
// Monitor and complete it.
func TestFrontEndTimeRidesItsWindow(t *testing.T) {
	cfg := testConfig() // w = 5 s at 2 key fps: ten frames a window
	cfg.CheckpointDir = t.TempDir()
	crashed, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.AddQuery(1, bytes.NewReader(clip(t, 76, 10))); err != nil {
		t.Fatal(err)
	}
	pd, err := mpeg.NewPartialDecoder(bytes.NewReader(clip(t, 816, 2.5)))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := crashed.pipeline.cells(pd, new(frontEnd), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.pushLogged(cells); err != nil { // Monitor's frame path
		t.Fatal(err)
	}
	if err := crashed.Close(); err != nil { // no final checkpoint
		t.Fatal(err)
	}

	cfg.RealTimeBudget = time.Hour   // the controller is armed and never sheds
	cfg.SlowWindow = time.Nanosecond // every record reaches OnSlowWindow
	det, _, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	if n := det.engine.PendingFrames(); n != 5 {
		t.Fatalf("resumed mid-window with %d frames pending, want 5", n)
	}
	var recs []SlowWindowTrace
	det.OnSlowWindow = func(tr SlowWindowTrace) { recs = append(recs, tr) }
	if _, err := det.Monitor(bytes.NewReader(clip(t, 817, 2.5))); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].StartFrame != 0 || recs[0].EndFrame != 10 {
		t.Fatalf("records %+v, want one for the window [0,10)", recs)
	}
	ns := recs[0].NS
	if ns[perfobs.StageDecode] <= 0 || ns[perfobs.StageExtract] <= 0 {
		t.Fatalf("the window carries no front-end time: %v", ns)
	}
	o := det.Overload()
	want := time.Duration(ns[perfobs.StageDecode] + ns[perfobs.StageExtract] + ns[perfobs.StageWindowTotal])
	if o.Observed != 1 || o.RingP99 != want {
		t.Fatalf("controller observed %d windows, last %v; want 1 of decode+extract+kernel = %v", o.Observed, o.RingP99, want)
	}
}

// TestTailCaptureDetectorAndFleet: with head sampling off and a 1 ns
// slow-window budget, every window of a detector stream and of its fleet's
// two streams is counted, kept in the span ring and named in the fleet's
// slowest list — fleet windows without reaching OnSlowWindow. With the
// budget at 0 nothing is kept.
func TestTailCaptureDetectorAndFleet(t *testing.T) {
	cfg := testConfig()
	cfg.SlowWindow = time.Nanosecond
	cfg.StreamName = "tail-det"
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 77, 10))); err != nil {
		t.Fatal(err)
	}
	reported := 0
	det.OnSlowWindow = func(SlowWindowTrace) { reported++ }
	fl, err := det.NewFleet(FleetConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var streams []*FleetStream
	for _, id := range []string{"tail-a", "tail-b"} {
		fs, err := fl.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, fs)
	}
	// run monitors 20 s on the detector and pushes 10 s to each fleet
	// stream, returning the windows each stream label processed.
	run := func(seed int64) map[string]int {
		before := map[string]int{"tail-det": det.Stats().Windows}
		for _, fs := range streams {
			before[fs.ID()] = fs.Stats().Windows
		}
		if _, err := det.Monitor(bytes.NewReader(clip(t, seed, 20))); err != nil {
			t.Fatal(err)
		}
		for i, fs := range streams {
			if err := fs.PushSegment(bytes.NewReader(clip(t, seed+1+int64(i), 10))); err != nil {
				t.Fatal(err)
			}
		}
		fl.Drain()
		got := map[string]int{"tail-det": det.Stats().Windows - before["tail-det"]}
		for _, fs := range streams {
			got[fs.ID()] = fs.Stats().Windows - before[fs.ID()]
		}
		return got
	}

	slowBefore := slowWindowsTotal(t)
	windows := run(830)
	kept := map[string]int{}
	for _, sp := range det.Spans().Spans(0) {
		if sp.Kept != "slow" {
			t.Errorf("record kept as %q at 0%% sampling, want slow", sp.Kept)
		}
		kept[sp.Stream]++
	}
	total := 0
	for label, n := range windows {
		total += n
		if n == 0 || kept[label] != n {
			t.Errorf("stream %s: %d windows kept of %d", label, kept[label], n)
		}
	}
	if got := slowWindowsTotal(t) - slowBefore; got != float64(total) {
		t.Errorf("vcd_slow_windows_total moved by %g, want %d", got, total)
	}
	if reported != windows["tail-det"] {
		t.Errorf("OnSlowWindow saw %d windows, want the detector's %d only", reported, windows["tail-det"])
	}
	slowest := map[string]bool{}
	for _, it := range det.Spans().Outliers().Report(0).Slowest {
		slowest[it.Key] = true
	}
	for label := range windows {
		if !slowest[label] {
			t.Errorf("stream %s missing from the slowest list %v", label, slowest)
		}
	}

	det.SetSlowWindow(0) // reaches the fleet's streams too
	run(840)
	if n := len(det.Spans().Spans(0)) - total; n != 0 {
		t.Errorf("%d records kept with budget 0 and sampling off", n)
	}
}

// TestSlowWindowBudgetResolution pins how Config.SlowWindow arms the
// tracer threshold; the -slow-window spellings are internal/cli's.
func TestSlowWindowBudgetResolution(t *testing.T) {
	base := testConfig()
	cases := []struct {
		name string
		cfg  time.Duration
		want time.Duration
	}{
		{"default off", 0, 0},
		{"config wins", time.Second, time.Second},
		{"config disables env", -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.SlowWindow = tc.cfg
			if got := cfg.slowWindowBudget(); got != tc.want {
				t.Errorf("slowWindowBudget() = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMetricsDisabledStillCounts pins the Enabled contract at the facade:
// with stage timing off, histograms stay still while throughput counters
// keep moving.
func TestMetricsDisabledStillCounts(t *testing.T) {
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	before := scrapeDefault(t)

	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 75, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 815, 20))); err != nil {
		t.Fatal(err)
	}

	after := scrapeDefault(t)
	delta := func(name string, labels ...telemetry.Label) float64 {
		a, _ := after.Value(name, labels...)
		b, _ := before.Value(name, labels...)
		return a - b
	}
	if d := delta("vcd_frames_total"); d != 40 {
		t.Errorf("vcd_frames_total moved by %g with telemetry off, want 40 (counters stay on)", d)
	}
	for _, stage := range []string{"decode", "extract", "window_total"} {
		if d := delta("vcd_stage_duration_seconds_count", telemetry.L("stage", stage)); d != 0 {
			t.Errorf("stage %q observed %g times with telemetry off, want 0", stage, d)
		}
	}
}
