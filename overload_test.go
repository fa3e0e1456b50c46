package vdsms

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"
	"time"
)

// overloadConfig is the facade test config for shedding: 1-second windows
// (2 key frames each) so a modest stream produces enough windows for the
// controller's hysteresis to play out.
func overloadConfig() Config {
	cfg := testConfig()
	cfg.WindowSec = 1
	return cfg
}

func TestOverloadShedsUnderImpossibleBudget(t *testing.T) {
	cfg := overloadConfig()
	cfg.RealTimeBudget = time.Nanosecond // every window breaches
	cfg.Shed = true
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 1, 10))); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(bytes.NewReader(clip(t, 50, 120))); err != nil {
		t.Fatal(err)
	}
	o := det.Overload()
	if !o.Armed {
		t.Fatal("controller not armed")
	}
	if o.Level < 1 {
		t.Fatalf("shed level %d after 120 windows over an impossible budget, want ≥ 1", o.Level)
	}
	if o.ShedWindows == 0 || o.Transitions == 0 {
		t.Fatalf("overload stats = %+v, want shed windows and transitions", o)
	}
	if o.ExtractShed == 0 {
		t.Fatalf("overload stats = %+v, want extract sheds at level ≥ 1", o)
	}
	if det.ShedLevel() != o.Level {
		t.Fatalf("ShedLevel() = %d, Overload().Level = %d", det.ShedLevel(), o.Level)
	}
}

func TestOverloadObserveOnlyWithoutShed(t *testing.T) {
	cfg := overloadConfig()
	cfg.RealTimeBudget = time.Nanosecond
	cfg.Shed = false // observe-only: the level rises but no work is dropped
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 1, 10))); err != nil {
		t.Fatal(err)
	}
	stream := clip(t, 51, 120)
	got, err := det.Monitor(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	o := det.Overload()
	if o.Level < 1 {
		t.Fatalf("observe-only level %d, want ≥ 1", o.Level)
	}
	if o.ExtractShed != 0 || o.DecodeShed != 0 {
		t.Fatalf("observe-only mode shed work: %+v", o)
	}

	// Output is identical to a detector with no controller at all.
	base, err := NewDetector(overloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddQuery(1, bytes.NewReader(clip(t, 1, 10))); err != nil {
		t.Fatal(err)
	}
	want, err := base.Monitor(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	identicalMatches(t, got, want)
}

func TestOverloadGenerousBudgetShedsNothing(t *testing.T) {
	cfg := overloadConfig()
	cfg.RealTimeBudget = time.Hour
	cfg.Shed = true
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	query := clip(t, 1, 10)
	if err := det.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ComposeStream(&stream, 80, 1,
		bytes.NewReader(clip(t, 60, 20)), bytes.NewReader(query), bytes.NewReader(clip(t, 61, 20)),
	); err != nil {
		t.Fatal(err)
	}
	streamBytes := stream.Bytes()
	got, err := det.Monitor(bytes.NewReader(streamBytes))
	if err != nil {
		t.Fatal(err)
	}
	o := det.Overload()
	if o.Level != 0 || o.ExtractShed != 0 || o.DecodeShed != 0 {
		t.Fatalf("generous budget still shed: %+v", o)
	}
	if o.Observed == 0 || o.RunP99 == 0 {
		t.Fatalf("controller observed nothing: %+v", o)
	}

	// Shed machinery at level 0 must not perturb matching.
	base, err := NewDetector(overloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	want, err := base.Monitor(bytes.NewReader(streamBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("setup: baseline found no matches")
	}
	identicalMatches(t, got, want)
}

func TestSetRealTimeBudgetArmsAndRetunes(t *testing.T) {
	det, err := NewDetector(overloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.RealTimeBudget() != 0 || det.ShedLevel() != 0 {
		t.Fatal("unarmed detector reports a budget or level")
	}
	if o := det.Overload(); o.Armed {
		t.Fatal("unarmed detector reports Armed")
	}
	det.SetRealTimeBudget(50 * time.Millisecond)
	if det.RealTimeBudget() != 50*time.Millisecond {
		t.Fatalf("RealTimeBudget() = %v after arming", det.RealTimeBudget())
	}
	det.SetRealTimeBudget(time.Second)
	if det.RealTimeBudget() != time.Second {
		t.Fatalf("RealTimeBudget() = %v after retune", det.RealTimeBudget())
	}
	// Streams created from an armed detector share its controller.
	sib, err := det.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	det.SetRealTimeBudget(2 * time.Second)
	if sib.RealTimeBudget() != 2*time.Second {
		t.Fatalf("sibling budget %v, want the lineage's 2s", sib.RealTimeBudget())
	}
}

// TestSiblingTakesTheLineageBudget: a NewStream sibling made before the
// lineage's budget is set takes it too — every stream of a lineage shares
// one controller from the lineage's first detector on — so monitoring
// through the sibling observes and sheds at the lineage's level.
func TestSiblingTakesTheLineageBudget(t *testing.T) {
	cfg := overloadConfig()
	cfg.Shed = true
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 1, 10))); err != nil {
		t.Fatal(err)
	}
	sib, err := det.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	det.SetRealTimeBudget(time.Nanosecond)
	if got := sib.RealTimeBudget(); got != time.Nanosecond {
		t.Fatalf("sibling budget %v, want the lineage's 1ns", got)
	}
	if _, err := sib.Monitor(bytes.NewReader(clip(t, 50, 120))); err != nil {
		t.Fatal(err)
	}
	o := sib.Overload()
	if !o.Armed || o.Observed == 0 || o.Level < 1 {
		t.Fatalf("sibling overload stats %+v, want armed, observing and escalated", o)
	}
	if o.ExtractShed == 0 {
		t.Fatalf("sibling shed nothing at level %d: %+v", o.Level, o)
	}
	if det.ShedLevel() != o.Level {
		t.Fatalf("root at level %d, sibling at %d: one lineage, one level", det.ShedLevel(), o.Level)
	}
}

// cancelAfterReader cancels ctx once n bytes have been served, then keeps
// serving — the cancellation is observed by MonitorContext's reader wrapper
// at the next read.
type cancelAfterReader struct {
	r      io.Reader
	n      int
	served int
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	m, err := c.r.Read(p)
	c.served += m
	if c.served >= c.n && c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return m, err
}

// TestMonitorContextCancelMidShed cancels a checkpointing monitor while the
// controller is shedding: the call must return promptly with ctx.Err(), no
// goroutines may leak, a final checkpoint must land, and a resumed lineage
// starts back at shed level 0.
func TestMonitorContextCancelMidShed(t *testing.T) {
	cfg := overloadConfig()
	cfg.RealTimeBudget = time.Nanosecond
	cfg.Shed = true
	cfg.Resync = true
	cfg.CheckpointDir = t.TempDir()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 1, 10))); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	stream := clip(t, 70, 240)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel two thirds in: far enough for the controller to escalate.
	_, err = det.MonitorContext(ctx, &cancelAfterReader{
		r: bytes.NewReader(stream), n: len(stream) * 2 / 3, cancel: cancel,
	})
	if err != context.Canceled {
		t.Fatalf("MonitorContext returned %v, want context.Canceled", err)
	}
	if det.ShedLevel() < 1 {
		t.Fatalf("shed level %d at cancellation, want ≥ 1 (test must cancel mid-shed)", det.ShedLevel())
	}
	if det.Overload().ExtractShed == 0 {
		t.Fatal("nothing was shed before cancellation")
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}

	// No goroutine leak: the worker pool and monitor plumbing wind down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after cancel+close, started with %d", now, before)
	}

	// The final checkpoint covers the cancellation point, and the resumed
	// lineage starts with a fresh controller at level 0.
	res, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no checkpoint found after cancelled monitor")
	}
	defer res.Close()
	if res.Stats().Frames == 0 {
		t.Fatal("resumed detector recovered no frames")
	}
	if res.ShedLevel() != 0 {
		t.Fatalf("resumed shed level %d, want reset to 0", res.ShedLevel())
	}
	if o := res.Overload(); !o.Armed || o.Budget != cfg.RealTimeBudget {
		t.Fatalf("resumed overload state %+v, want armed with the configured budget", o)
	}
}
