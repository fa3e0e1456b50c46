// Package core implements the paper's streaming copy-detection engine
// (Sections IV and V): the incoming stream of per-key-frame cell ids is cut
// into basic windows of w frames; each window is min-hash sketched, probed
// against the continuous queries, and folded into the candidate-sequence
// list C_L under a Sequential or Geometric combination order. Candidates
// are compared to queries either by raw sketch operations (Sketch method)
// or by the 2K-bit vector signatures of Section V (Bit method), with the
// Lemma 2 prune and the query index optionally enabled. Matches are
// reported whenever a candidate reaches similarity δ against a query.
package core

import (
	"fmt"
	"math"
)

// Order selects the candidate combination order of Section IV.A.
type Order int

const (
	// Sequential maintains every suffix candidate of size 1..⌈λL/w⌉.
	Sequential Order = iota
	// Geometric maintains O(log) candidates with geometrically growing
	// sizes, testing ⌈log i⌉ combinations per arriving window.
	Geometric
)

// String implements fmt.Stringer.
func (o Order) String() string {
	if o == Geometric {
		return "geometric"
	}
	return "sequential"
}

// Method selects the candidate/query comparison representation.
type Method int

const (
	// Bit uses the 2K-bit vector signatures of Section V.
	Bit Method = iota
	// Sketch uses raw K-value sketch comparison and combination.
	Sketch
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == Sketch {
		return "sketch"
	}
	return "bit"
}

// Config parameterises an Engine. The zero value is not usable; call
// (*Config).Default() or fill the fields and Validate.
type Config struct {
	// K is the number of min-hash functions (paper default 800).
	K int
	// Seed fixes the hash family. Queries and streams must be processed by
	// engines sharing (K, Seed).
	Seed int64
	// Delta is the similarity threshold δ (paper default 0.7).
	Delta float64
	// Lambda bounds candidate length to λL for a query of length L
	// (paper: optimal tempo scaling λ ≤ 2).
	Lambda float64
	// WindowFrames is the basic window size w in key frames.
	WindowFrames int
	// Order is the candidate combination order.
	Order Order
	// Method is the comparison representation.
	Method Method
	// UseIndex enables the query index (internal/qindex); otherwise every
	// window is compared to every query (the NoIndex baselines of Fig. 9).
	UseIndex bool
	// DisablePrune turns off the Lemma 2 prune (ablation only).
	DisablePrune bool
	// PreFilter is ignored. It put an exact row pre-filter in front of the
	// Hash-Query index, which the index, keyed by each window's winning
	// cells, now is itself (DESIGN.md §10); it stays for one release so that
	// code setting it still compiles.
	PreFilter bool
}

// maxWindowFrames bounds WindowFrames: a window's distinct cells must fit
// the 16-bit winner indices of minhash.Winners.
const maxWindowFrames = 1<<16 - 1

// Default returns the paper's default parameters (Table I) with a basic
// window of w key frames.
func Default(windowFrames int) Config {
	return Config{
		K:            800,
		Delta:        0.7,
		Lambda:       2,
		WindowFrames: windowFrames,
		Order:        Sequential,
		Method:       Bit,
		UseIndex:     true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("core: K=%d must be positive", c.K)
	}
	if c.Delta <= 0 || c.Delta > 1 {
		return fmt.Errorf("core: δ=%g out of (0,1]", c.Delta)
	}
	if c.Lambda < 1 {
		return fmt.Errorf("core: λ=%g must be >= 1", c.Lambda)
	}
	if c.WindowFrames <= 0 || c.WindowFrames > maxWindowFrames {
		return fmt.Errorf("core: window of %d frames, want 1..%d", c.WindowFrames, maxWindowFrames)
	}
	switch c.Order {
	case Sequential, Geometric:
	default:
		return fmt.Errorf("core: unknown order %d", c.Order)
	}
	switch c.Method {
	case Bit, Sketch:
	default:
		return fmt.Errorf("core: unknown method %d", c.Method)
	}
	return nil
}

// maxWindows returns ⌈λL/w⌉ for a query of length L frames.
func (c Config) maxWindows(queryFrames int) int {
	return int(math.Ceil(c.Lambda * float64(queryFrames) / float64(c.WindowFrames)))
}

// Match is one detected copy.
type Match struct {
	// QueryID identifies the matched continuous query.
	QueryID int
	// StartFrame and EndFrame delimit the matching candidate sequence in
	// key-frame indices of the monitored stream (inclusive start, exclusive
	// end).
	StartFrame, EndFrame int
	// DetectedAt is the key-frame index at which the match was reported
	// (the end of the window that completed the candidate).
	DetectedAt int
	// Similarity is the estimated Jaccard similarity at detection time.
	Similarity float64
	// Windows is the candidate size in basic windows.
	Windows int
}

// Stats aggregates the engine's operation counters. Sketch operations are
// O(K) array scans; signature operations are O(K/64) word scans — the
// distinction behind the Fig. 6 CPU curves.
type Stats struct {
	Frames  int // key frames consumed
	Windows int // basic windows processed
	// SketchCombines and SketchCompares count O(K) sketch operations.
	SketchCombines, SketchCompares int64
	// SigOrs and SigTests count bit-signature operations.
	SigOrs, SigTests int64
	// ProbeComparisons accumulates value comparisons inside probing.
	ProbeComparisons int64
	// SignatureSum sums, over windows, the number of bit signatures alive
	// in C_L after processing the window; AvgSignatures() is the paper's
	// Fig. 10 memory metric.
	SignatureSum int64
	// CandidateSum sums live candidates per window.
	CandidateSum int64
	// Matches counts reported matches.
	Matches int
	// Probed counts related queries surfaced by window probes.
	Probed int64
	// Pruned counts Lemma 2 prunes, during probing and during candidate
	// extension.
	Pruned int64
	// Compared counts similarity evaluations: signature tests plus sketch
	// comparisons.
	Compared int64
}

// AvgSignatures is the average number of bit signatures maintained per
// window (Fig. 10's n).
func (s Stats) AvgSignatures() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.SignatureSum) / float64(s.Windows)
}

// AvgCandidates is the average number of live candidate sequences.
func (s Stats) AvgCandidates() float64 {
	if s.Windows == 0 {
		return 0
	}
	return float64(s.CandidateSum) / float64(s.Windows)
}
