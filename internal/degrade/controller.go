package degrade

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MaxLevel is the highest shed level the controller will request. Levels
// are cumulative: each one sheds strictly more work than the one below.
//
//	0 — full fidelity, nothing shed
//	1 — extract shed: low-motion key frames reuse the previous cell id
//	2 — adds decode shed: low-delta frames skip entropy decode entirely
//	3 — aggressive decode shed for severe overload
const MaxLevel = 3

// The control loop's constants. The p99 is taken over the last ringSize
// observations: at 32 the nearest-rank p99 is the ring's maximum, the
// right amount of paranoia for a real-time bound. After a level change
// settle observations accumulate before the loop evaluates again, so one
// stale slow window from the previous level cannot re-trigger escalation.
// upStreak consecutive breaching evaluations raise the level; downStreak
// consecutive evaluations below lowWater×budget lower it — recovery is
// much slower than escalation so the level does not oscillate across the
// boundary. The hold band must cover the cost step between adjacent shed
// levels (roughly 2×: level 3 halves the cost of level 2), or the loop
// would de-escalate from a comfortably-under-budget level straight into
// one that breaches, and oscillate.
const (
	ringSize   = 32
	settle     = 8
	upStreak   = 2
	downStreak = 16
	lowWater   = 0.55
)

// Controller is the closed-loop overload controller: Observe is called once
// per completed basic window with the window's total ingest latency, and
// Level (lock-free, read from the hot path before every frame decision)
// reports the shed level the pipeline should run at.
//
// All methods are safe for concurrent use — one controller is shared by a
// detector lineage, so concurrent streams feed one loop and shed together
// (overload is a process condition, not a per-stream one).
type Controller struct {
	level  atomic.Int32
	budget atomic.Int64 // nanoseconds; mutable at runtime via SetBudget

	mu     sync.Mutex
	ring   [ringSize]time.Duration // observation window, cleared on level change
	ringN  int                     // valid entries in ring (≤ ringSize)
	ringAt int                     // next write position
	ups    int                     // consecutive breaching evaluations
	downs  int                     // consecutive evaluations below low water

	// Steady-state digest: a uniform reservoir sample (Algorithm R with a
	// deterministic LCG) of every observation since the last level change.
	// Whole-run percentiles are dominated by the slow escalation-phase
	// windows, so overload reporting wants "the distribution once the level
	// settled" — that is exactly the digest content whenever the level has
	// stopped moving. The reservoir keeps raw durations, so RunP99 is an
	// exact nearest-rank quantile of the sample rather than a
	// bucket-interpolated estimate (bucket edges are up to 2.5× apart —
	// far too coarse to compare against a real-time budget).
	steadyRes   []time.Duration
	steadyN     int64
	steadySum   float64
	resRng      uint64
	transitions int64 // total level changes (both directions)
	observed    int64 // total observations ever
	shedWindows int64 // observations taken while level > 0
}

// steadyReservoir is the reservoir capacity: at 256 samples the nearest-rank
// p99 sits 2–3 observations from the top, enough resolution for a tail
// estimate while keeping Snapshot cheap.
const steadyReservoir = 256

// NewController builds a controller with the given per-window real-time
// budget: the latency the p99 of recent window observations must stay
// under. Zero leaves the loop off until SetBudget arms it.
func NewController(budget time.Duration) *Controller {
	c := &Controller{resRng: 0x9E3779B97F4A7C15}
	c.budget.Store(int64(max(budget, 0)))
	return c
}

// Level returns the current shed level in [0, MaxLevel]. Lock-free.
func (c *Controller) Level() int { return int(c.level.Load()) }

// Budget returns the current real-time budget (zero = loop disabled).
func (c *Controller) Budget() time.Duration { return time.Duration(c.budget.Load()) }

// SetBudget replaces the real-time budget at runtime and restarts the
// evidence window. Setting zero disables the loop and resets the level.
func (c *Controller) SetBudget(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.budget.Store(int64(d))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearEvidenceLocked()
	if d == 0 && c.level.Load() != 0 {
		c.level.Store(0)
		c.transitions++
	}
}

// clearEvidenceLocked drops the ring and the steady-state digest.
func (c *Controller) clearEvidenceLocked() {
	c.ringN, c.ringAt = 0, 0
	c.steadyRes = c.steadyRes[:0]
	c.steadyN = 0
	c.steadySum = 0
}

// Observe feeds one completed window's total ingest latency into the loop
// and returns the (possibly changed) shed level. With the loop off it is
// one atomic load and returns 0.
func (c *Controller) Observe(total time.Duration) int {
	budget := time.Duration(c.budget.Load())
	if budget <= 0 {
		return 0
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	c.observed++
	if c.level.Load() > 0 {
		c.shedWindows++
	}

	c.ring[c.ringAt] = total
	c.ringAt = (c.ringAt + 1) % ringSize
	c.ringN = min(c.ringN+1, ringSize)
	c.digestLocked(total)

	level := int(c.level.Load())
	if c.ringN < settle {
		return level
	}
	switch p99 := c.ringP99Locked(); {
	case p99 > budget:
		c.downs = 0
		c.ups++
		if c.ups >= upStreak && level < MaxLevel {
			level++
			c.changeLevelLocked(level)
		}
	case p99 < time.Duration(float64(budget)*lowWater):
		c.ups = 0
		c.downs++
		if c.downs >= downStreak && level > 0 {
			level--
			c.changeLevelLocked(level)
		}
	default:
		// Between the waters: hold the level, decay both streaks.
		c.ups, c.downs = 0, 0
	}
	return level
}

// changeLevelLocked commits a level change and restarts evidence collection
// so the next decision is based entirely on windows run at the new level.
func (c *Controller) changeLevelLocked(level int) {
	c.level.Store(int32(level))
	c.transitions++
	c.ups, c.downs = 0, 0
	c.clearEvidenceLocked()
}

// digestLocked adds one observation to the steady-state reservoir.
func (c *Controller) digestLocked(total time.Duration) {
	c.steadyN++
	c.steadySum += total.Seconds()
	if len(c.steadyRes) < steadyReservoir {
		c.steadyRes = append(c.steadyRes, total)
		return
	}
	// Algorithm R: replace a uniformly chosen slot with probability
	// reservoir/steadyN, via a deterministic LCG (the controller must not
	// perturb or depend on global randomness).
	c.resRng = c.resRng*6364136223846793005 + 1442695040888963407
	if j := int(c.resRng % uint64(c.steadyN)); j < steadyReservoir {
		c.steadyRes[j] = total
	}
}

// Snapshot is a point-in-time view of the control loop for /stats,
// experiment reports and tests.
type Snapshot struct {
	Level       int           // current shed level
	Budget      time.Duration // current budget (0 = disabled)
	RingP99     time.Duration // p99 of the current evidence ring
	RunP99      time.Duration // p99 since the last level change (steady state)
	RunMean     time.Duration // mean since the last level change
	RunWindows  int64         // observations since the last level change
	Observed    int64         // observations ever
	ShedWindows int64         // observations taken at level > 0
	Transitions int64         // level changes ever
}

// Snapshot returns the current control-loop state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{
		Level:       int(c.level.Load()),
		Budget:      time.Duration(c.budget.Load()),
		Observed:    c.observed,
		ShedWindows: c.shedWindows,
		Transitions: c.transitions,
	}
	if c.ringN > 0 {
		s.RingP99 = c.ringP99Locked()
	}
	s.RunWindows = c.steadyN
	if c.steadyN > 0 {
		buf := make([]time.Duration, len(c.steadyRes))
		copy(buf, c.steadyRes)
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		rank := (99*len(buf) + 99) / 100 // ceil(0.99 n)
		if rank < 1 {
			rank = 1
		}
		s.RunP99 = buf[rank-1]
		s.RunMean = time.Duration(c.steadySum / float64(c.steadyN) * float64(time.Second))
	}
	return s
}

// ringP99Locked is the nearest-rank p99 of the valid ring entries: with at
// most 32 of them the 0.99 rank is the last, so it is their maximum.
func (c *Controller) ringP99Locked() time.Duration {
	return slices.Max(c.ring[:c.ringN])
}
