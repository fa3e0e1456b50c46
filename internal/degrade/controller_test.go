package degrade

import (
	"testing"
	"time"
)

// feed pushes n observations of d and returns the final level.
func feed(c *Controller, n int, d time.Duration) int {
	level := c.Level()
	for i := 0; i < n; i++ {
		level = c.Observe(d)
	}
	return level
}

func TestControllerDisabledWithoutBudget(t *testing.T) {
	c := NewController(0)
	if got := feed(c, 100, time.Second); got != 0 {
		t.Fatalf("level %d with zero budget, want 0", got)
	}
	if s := c.Snapshot(); s.Observed != 0 {
		t.Fatalf("disabled controller recorded %d observations", s.Observed)
	}
}

func TestControllerEscalatesUnderBreach(t *testing.T) {
	c := NewController(10 * time.Millisecond)
	// settle evidence + upStreak breaches per step; 2×ring is plenty
	// for one escalation.
	if got := feed(c, 2*32, 20*time.Millisecond); got < 1 {
		t.Fatalf("level %d after sustained breach, want ≥ 1", got)
	}
	// Keep breaching: must saturate at MaxLevel, never beyond.
	if got := feed(c, 10*32, 20*time.Millisecond); got != MaxLevel {
		t.Fatalf("level %d after long sustained breach, want MaxLevel=%d", got, MaxLevel)
	}
	if got := feed(c, 5*32, 20*time.Millisecond); got != MaxLevel {
		t.Fatalf("level %d exceeded MaxLevel", got)
	}
}

func TestControllerRecoversWhenClear(t *testing.T) {
	c := NewController(10 * time.Millisecond)
	feed(c, 4*32, 20*time.Millisecond)
	if c.Level() == 0 {
		t.Fatal("setup: expected a raised level")
	}
	// Far below the low-water mark for long enough to walk all the way
	// back down: each step needs settle + downStreak clear windows.
	if got := feed(c, MaxLevel*(8+16)+32, time.Millisecond); got != 0 {
		t.Fatalf("level %d after sustained recovery, want 0", got)
	}
}

func TestControllerHysteresisHoldsBetweenWaters(t *testing.T) {
	c := NewController(10 * time.Millisecond)
	feed(c, 2*32, 20*time.Millisecond)
	level := c.Level()
	if level == 0 {
		t.Fatal("setup: expected a raised level")
	}
	// 8ms is under budget but above lowWater×budget (5.5ms): the level
	// must hold.
	if got := feed(c, 200, 8*time.Millisecond); got != level {
		t.Fatalf("level moved %d→%d inside the hysteresis band", level, got)
	}
}

func TestControllerSingleSpikeDoesNotEscalate(t *testing.T) {
	c := NewController(10 * time.Millisecond)
	feed(c, 32, time.Millisecond)
	// One wild outlier breaches the ring p99 but the up-streak requires
	// consecutive breaching evaluations... which the spike alone provides
	// while it sits in the ring. Guard against that with the streak reset:
	// after the spike, clear windows reset the streak before it can fire
	// twice only if upStreak > 1 evaluations happen while p99 is breached.
	// With upStreak = 2 one spike in a clear stream escalates once at most;
	// assert it never reaches MaxLevel.
	c.Observe(500 * time.Millisecond)
	if got := feed(c, 300, time.Millisecond); got >= MaxLevel {
		t.Fatalf("single spike drove level to %d", got)
	}
	if got := c.Level(); got != 0 {
		t.Fatalf("level %d long after a single spike, want recovered to 0", got)
	}
}

func TestControllerSetBudgetRuntime(t *testing.T) {
	c := NewController(time.Hour)
	if got := feed(c, 64, 20*time.Millisecond); got != 0 {
		t.Fatalf("level %d under a huge budget", got)
	}
	c.SetBudget(10 * time.Millisecond)
	if c.Budget() != 10*time.Millisecond {
		t.Fatalf("Budget() = %v after SetBudget", c.Budget())
	}
	if got := feed(c, 2*32, 20*time.Millisecond); got < 1 {
		t.Fatalf("level %d after tightening the budget, want ≥ 1", got)
	}
	// Zero budget disables and resets.
	c.SetBudget(0)
	if c.Level() != 0 {
		t.Fatalf("level %d after SetBudget(0), want 0", c.Level())
	}
	if got := feed(c, 100, time.Second); got != 0 {
		t.Fatalf("disabled loop escalated to %d", got)
	}
}

func TestControllerSnapshotSteadyState(t *testing.T) {
	c := NewController(time.Hour)
	// All observations at one level: the steady digest covers everything.
	feed(c, 50, 2*time.Millisecond)
	s := c.Snapshot()
	if s.RunWindows != 50 || s.Observed != 50 {
		t.Fatalf("RunWindows=%d Observed=%d, want 50/50", s.RunWindows, s.Observed)
	}
	if s.RunP99 < time.Millisecond || s.RunP99 > 5*time.Millisecond {
		t.Fatalf("steady RunP99 = %v, want 2ms exactly (reservoir)", s.RunP99)
	}
	if s.RunMean < time.Millisecond || s.RunMean > 3*time.Millisecond {
		t.Fatalf("steady RunMean = %v, want ~2ms", s.RunMean)
	}
	if s.ShedWindows != 0 || s.Transitions != 0 {
		t.Fatalf("unexpected shed/transition counts: %+v", s)
	}
}

func TestControllerSteadyDigestRestartsOnLevelChange(t *testing.T) {
	c := NewController(10 * time.Millisecond)
	// Breach until the first escalation, then stop immediately so the
	// freshly cleared digest sees no further 50ms windows.
	for i := 0; i < 200 && c.Level() == 0; i++ {
		c.Observe(50 * time.Millisecond)
	}
	if c.Level() == 0 {
		t.Fatal("setup: expected a raised level")
	}
	transitions := c.Snapshot().Transitions
	if transitions == 0 {
		t.Fatal("no transitions recorded")
	}
	// Hold the level inside the hysteresis band with fast-ish windows: the
	// digest must now only contain post-change observations.
	feed(c, 40, 8*time.Millisecond)
	s := c.Snapshot()
	if s.Transitions != transitions {
		t.Fatalf("level moved during the hold phase (%d→%d transitions)", transitions, s.Transitions)
	}
	if s.RunP99 > 12*time.Millisecond {
		t.Fatalf("steady RunP99 = %v still polluted by pre-change 50ms windows", s.RunP99)
	}
	if s.ShedWindows == 0 {
		t.Fatal("ShedWindows = 0 while shedding")
	}
}
