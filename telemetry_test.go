package vdsms

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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
	cfg.CheckpointEvery = time.Hour // periodic path off: only cancel checkpoints

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
// and the boundary checkpoints time their atomic writes.
func TestWALTelemetryObserved(t *testing.T) {
	before := scrapeDefault(t)

	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = time.Nanosecond // checkpoint at every window boundary
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

// TestSlowWindowTracerFacade arms the tracer through Config.SlowWindow
// with an impossible budget, so every basic window of a monitored stream
// traces with stream-time positions.
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
	slowBefore := telSlowWindows.Value()
	if _, err := det.Monitor(bytes.NewReader(clip(t, 814, 30))); err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("1 ns budget traced no windows")
	}
	if got := telSlowWindows.Value() - slowBefore; got != int64(len(traces)) {
		t.Errorf("vcd_slow_windows_total moved by %d, want %d", got, len(traces))
	}
	for _, tr := range traces {
		if tr.Budget != time.Nanosecond || tr.Total <= 0 || tr.EndFrame <= tr.StartFrame {
			t.Fatalf("malformed trace %+v", tr)
		}
	}
}

// TestSlowWindowBudgetResolution pins the Config/environment precedence of
// the tracer threshold.
func TestSlowWindowBudgetResolution(t *testing.T) {
	base := testConfig() // WindowSec = 5
	cases := []struct {
		name string
		cfg  time.Duration
		env  string
		want time.Duration
	}{
		{"default off", 0, "", 0},
		{"env off", 0, "off", 0},
		{"env zero", 0, "0", 0},
		{"env duration", 0, "250ms", 250 * time.Millisecond},
		{"env budget", 0, "budget", 5 * time.Second},
		{"env garbage", 0, "shrug", 0},
		{"config wins", time.Second, "250ms", time.Second},
		{"config disables env", -1, "250ms", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(SlowWindowEnv, tc.env)
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
