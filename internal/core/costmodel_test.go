package core

import (
	"math"
	"math/rand"
	"testing"
)

// The paper's cost model (equation 4) says per-window work is
//
//	Sequential: αC_comp + (αC_comp + C_comb)·⌈λL/w⌉
//	Geometric:  αC_comp + (αC_comp + C_comb)·log(⌈λL/w⌉)
//
// These tests verify the structural claims on the engine's own operation
// counters: combination counts grow linearly with ⌈λL/w⌉ under Sequential
// order and logarithmically under Geometric order.

// relatedStream cycles the query's own ids so every window shares content
// with the query, stays related, and candidates survive to their expiry
// bound — the worst case the cost model describes.
func relatedStream(q []uint64, frames int) []uint64 {
	stream := make([]uint64, 0, frames+len(q))
	for len(stream) < frames {
		stream = append(stream, q...)
	}
	return stream[:frames]
}

// opsPerWindow runs a fully-related stream against one query of length
// qFrames and returns the average signature-OR (Bit method) operations per
// window once the candidate list is warm.
func opsPerWindow(t *testing.T, order Order, qFrames int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	q := idStream(rng, 1, qFrames)
	cfg := Config{K: 64, Seed: 7, Delta: 0.01, Lambda: 2, WindowFrames: 10,
		Order: order, Method: Bit, UseIndex: true, DisablePrune: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddQuery(1, q); err != nil {
		t.Fatal(err)
	}
	for _, id := range relatedStream(q, 6000) {
		e.PushFrame(id)
	}
	st := e.Stats()
	return float64(st.SigOrs) / float64(st.Windows)
}

func TestSequentialCostLinearInCandidates(t *testing.T) {
	// ⌈λL/w⌉ doubles from 10 to 20 → combinations per window should
	// roughly double.
	small := opsPerWindow(t, Sequential, 50)  // maxWindows = 10
	large := opsPerWindow(t, Sequential, 100) // maxWindows = 20
	ratio := large / small
	if ratio < 1.6 || ratio > 2.6 {
		t.Errorf("sequential ops ratio %.2f for 2× candidate bound, want ≈2 (%.1f → %.1f)",
			ratio, small, large)
	}
}

func TestGeometricCostLogarithmic(t *testing.T) {
	// Quadrupling ⌈λL/w⌉ (16 → 64) should grow per-window work by roughly
	// log(64)/log(16) = 1.5, nowhere near the 4× of Sequential order.
	small := opsPerWindow(t, Geometric, 80)  // maxWindows = 16
	large := opsPerWindow(t, Geometric, 320) // maxWindows = 64
	ratio := large / small
	// Strictly sublinear: a 4× larger bound must not cost anywhere near 4×.
	// (Exact log behaviour is disturbed by the counter's cap handling.)
	if ratio > 3 {
		t.Errorf("geometric ops ratio %.2f for 4× candidate bound, want clearly sublinear (%.1f → %.1f)",
			ratio, small, large)
	}
	// And Sequential at the same large bound must be far costlier.
	seq := opsPerWindow(t, Sequential, 320)
	if seq < 3*large {
		t.Errorf("sequential ops/window %.1f not ≫ geometric %.1f at ⌈λL/w⌉=64", seq, large)
	}
}

func TestGeometricStorageLogarithmic(t *testing.T) {
	// Average stored candidates (buckets) should stay O(log maxWindows).
	rng := rand.New(rand.NewSource(10))
	q := idStream(rng, 1, 320) // maxWindows = 64
	cfg := Config{K: 64, Seed: 7, Delta: 0.01, Lambda: 2, WindowFrames: 10,
		Order: Geometric, Method: Bit, UseIndex: true, DisablePrune: true}
	e, _ := NewEngine(cfg)
	e.AddQuery(1, q)
	for _, id := range relatedStream(q, 6000) {
		e.PushFrame(id)
	}
	avg := e.Stats().AvgCandidates()
	if avg > 2*math.Log2(64)+2 {
		t.Errorf("geometric stores %.1f candidates on average for a 64-window bound", avg)
	}
	// Sequential, by contrast, stores ≈maxWindows.
	cfg.Order = Sequential
	es, _ := NewEngine(cfg)
	es.AddQuery(1, q)
	for _, id := range relatedStream(q, 6000) {
		es.PushFrame(id)
	}
	if seqAvg := es.Stats().AvgCandidates(); seqAvg < 4*avg {
		t.Errorf("sequential stores %.1f candidates vs geometric %.1f; expected ≫", seqAvg, avg)
	}
}
