package degrade

import (
	"math"
	"math/rand"
	"testing"
)

func TestSamplerLevelZeroKeepsEverything(t *testing.T) {
	s := NewSampler(4)
	for i := 0; i < 200; i++ {
		if !s.KeepExtract(0, 0, true) {
			t.Fatal("level 0 shed an extract")
		}
		if !s.KeepDecode(0, 1000) {
			t.Fatal("level 0 shed a decode")
		}
	}
}

func TestSamplerLevelOneDoesNotShedDecode(t *testing.T) {
	s := NewSampler(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if !s.KeepDecode(1, 1000+rng.Intn(200)) {
			t.Fatal("level 1 shed a decode; decode shedding starts at level 2")
		}
	}
}

func TestSamplerShedsNearTargetFraction(t *testing.T) {
	s := NewSampler(4)
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	kept := 0
	for i := 0; i < n; i++ {
		// Stationary score distribution: uniform [0, 1).
		if s.KeepExtract(1, rng.Float64(), true) {
			kept++
		}
	}
	// Target drop 0.35, but the max-run guard forces keeps, so the realised
	// drop is a bit lower. Accept a generous band around it.
	drop := 1 - float64(kept)/n
	if drop < 0.15 || drop > 0.45 {
		t.Fatalf("extract drop fraction %.3f, want roughly 0.35 (guarded)", drop)
	}
}

func TestSamplerPrefersHighMotion(t *testing.T) {
	s := NewSampler(4)
	rng := rand.New(rand.NewSource(3))
	var keptHigh, nHigh, keptLow, nLow int
	for i := 0; i < 6000; i++ {
		// Bimodal: 70% static (score ~0.01), 30% motion (score ~1).
		var score float64
		high := rng.Float64() < 0.3
		if high {
			score = 0.9 + 0.2*rng.Float64()
		} else {
			score = 0.02 * rng.Float64()
		}
		kept := s.KeepExtract(1, score, true)
		if high {
			nHigh++
			if kept {
				keptHigh++
			}
		} else {
			nLow++
			if kept {
				keptLow++
			}
		}
	}
	hi, lo := float64(keptHigh)/float64(nHigh), float64(keptLow)/float64(nLow)
	if hi < 0.95 {
		t.Fatalf("high-motion keep rate %.3f, want ≈ 1", hi)
	}
	if lo >= hi {
		t.Fatalf("static keep rate %.3f not below high-motion %.3f", lo, hi)
	}
}

func TestSamplerMaxRunGuard(t *testing.T) {
	s := NewSampler(4)
	// Train the threshold high, then feed identical sub-threshold scores:
	// runs of sheds must never exceed maxExtractRun.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		s.KeepExtract(1, rng.Float64(), true)
	}
	run, worst := 0, 0
	for i := 0; i < 500; i++ {
		if s.KeepExtract(1, 0, true) {
			run = 0
		} else {
			run++
			if run > worst {
				worst = run
			}
		}
	}
	if worst > maxExtractRun {
		t.Fatalf("extract shed run of %d exceeds guard %d", worst, maxExtractRun)
	}

	// Decode sheds have no run guard of their own: the window budget keeps
	// at least one decode in every basic window, so a run of sheds reaches
	// at most from a window's first frame to the next window's last.
	const w = 4
	d := NewSampler(w)
	for i := 0; i < 500; i++ {
		d.KeepDecode(3, 1000+rng.Intn(500))
	}
	run, worst = 0, 0
	for i := 0; i < 500; i++ {
		if d.KeepDecode(3, 1000) { // constant size: zero delta, maximally boring
			run = 0
		} else {
			run++
			worst = max(worst, run)
		}
	}
	if worst > 2*(w-1) {
		t.Fatalf("decode shed run of %d spans a whole %d-frame window", worst, w)
	}
}

func TestSamplerForcedKeepsOnUnscorableFrames(t *testing.T) {
	s := NewSampler(4)
	for i := 0; i < 50; i++ {
		if !s.KeepExtract(3, 0, false) {
			t.Fatal("unscorable frame was shed")
		}
	}
	d := NewSampler(4)
	if !d.KeepDecode(3, 1234) {
		t.Fatal("first frame (no size delta yet) was shed")
	}
}

func TestSamplerLevelThreeShedsMoreDecodesThanLevelTwo(t *testing.T) {
	rate := func(level int) float64 {
		s := NewSampler(4)
		rng := rand.New(rand.NewSource(11))
		kept := 0
		const n = 5000
		for i := 0; i < n; i++ {
			if s.KeepDecode(level, 1000+rng.Intn(400)) {
				kept++
			}
		}
		return 1 - float64(kept)/n
	}
	// On 4-frame windows the budget is 2 decodes at level 2 and 1 at level
	// 3, and the tail keep spends all of it: the drops are exact.
	if d2, d3 := rate(2), rate(3); d2 != 0.5 || d3 != 0.75 {
		t.Fatalf("decode drop %.4f at level 2 and %.4f at level 3, want 0.5 and 0.75", d2, d3)
	}
}

// TestSamplerDecodeBudgetPerWindow: at every level and cadence, each basic
// window keeps between one decode and ⌈w·(1−drop)⌉ — also the window a
// previous segment left half-filled, which SetPhase enters: continued when
// this sampler decided its first frames, fresh when it did not (a resumed
// detector).
func TestSamplerDecodeBudgetPerWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	size := func() int { return 1000 + rng.Intn(400) }
	for level := 0; level <= MaxLevel; level++ {
		for _, w := range []int{1, 2, 3, 4, 5, 10} {
			budget := int(math.Ceil(float64(w) * (1 - decodeDrop[level])))
			for phase := 0; phase < w; phase++ {
				for _, carried := range []bool{false, true} {
					s := NewSampler(w)
					kept := 0
					if carried {
						for range phase {
							if s.KeepDecode(level, size()) {
								kept++
							}
						}
					}
					s.SetPhase(phase)
					pos := phase
					for range 40 * w {
						if s.KeepDecode(level, size()) {
							kept++
						}
						if pos++; pos == w {
							if kept < 1 || kept > budget {
								t.Fatalf("level %d, w %d, phase %d (carried %v): a window kept %d decodes, want 1..%d",
									level, w, phase, carried, kept, budget)
							}
							kept, pos = 0, 0
						}
					}
				}
			}
		}
	}
}

func TestThresholdTrackerConvergesOnQuantile(t *testing.T) {
	tr := thresholdTracker{f: 0.5}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		tr.update(rng.Float64())
	}
	// The median of U(0,1) is 0.5; the stochastic tracker should be near it.
	if math.Abs(tr.thr-0.5) > 0.15 {
		t.Fatalf("tracked median %.3f, want ≈ 0.5", tr.thr)
	}
}
