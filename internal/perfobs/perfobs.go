// Package perfobs is the performance-attribution layer of the VDSMS: it
// answers *where the time and the allocations of a window went*, per stage
// and per stream, at fleet scale — the measurement substrate the speed work
// of ROADMAP open item 1 gates against.
//
// It is built from four pieces, all stdlib-only and layered on
// internal/telemetry:
//
//   - Span records. Every sampled basic window carries one pooled Span
//     through the pipeline: front-end decode/extract, the kernel stages
//     (sketch, probe, combine, merge), the fleet's queue-wait and
//     worker-pin hop, and the window total. Spans are folded into a
//     worker-invariant Aggregate and exported as JSON lines through
//     /debug/spans and the CLIs' -span-log flag.
//
//   - Allocation and GC attribution. A configurable sub-sample of spans
//     additionally brackets each kernel stage with runtime/metrics
//     allocated-object reads, and diffs runtime.ReadMemStats GC totals, so
//     vcd_perf_allocs_per_window{stage} and the vcd_perf_gc_* series turn
//     the roadmap's allocs/op target into a live metric instead of a bench
//     number.
//
//   - Fleet outlier surfacing. Bounded space-saving (heavy-hitter) top-K
//     trackers name the slowest, most-shed and most-backpressured streams
//     of a fleet without per-stream metric labels; see Outliers.
//
//   - Continuous profiling. An opt-in Profiler periodically captures CPU
//     and heap profiles into a bounded ring of files so a production
//     incident always has a recent profile on disk; see profiler.go.
//
// Hot-path contract: with sampling disabled (the default), the only cost a
// window pays is one atomic load in Collector.Begin — no clock reads, no
// allocations, no locks. Sampled windows draw their Span from a sync.Pool
// and fold it back under one short mutex, so steady-state sampling
// allocates nothing either (JSON rendering happens at export time, on the
// reader's goroutine).
package perfobs

import "time"

// Stage enumerates the attributable pipeline stages of one basic window.
// The order is the export order and is part of the /debug/spans schema.
type Stage uint8

const (
	// StageDecode and StageExtract are the front end: entropy decode and
	// feature extraction of the frames that filled the window (facade-side,
	// summed over the window's frames).
	StageDecode Stage = iota
	StageExtract
	// StageSketch, StageProbe, StageCombine and StageMerge are the matching
	// kernel's serial and fanned-out stages; probe and combine report the
	// slowest shard (the critical path), merge covers the serial spine work
	// around the shard fork.
	StageSketch
	StageProbe
	StageCombine
	StageMerge
	// StageQueueWait is the time the pass's frames spent in the fleet
	// stream's bounded queue before a runner of the pool picked them up;
	// StageWorkerHop is the scheduling hop between the stream entering the
	// pool's ready queue and the pass actually starting. Both are zero
	// outside fleet deployments and are attributed to the first window of
	// each pass.
	StageQueueWait
	StageWorkerHop
	// StageWindowTotal is the window's full kernel processing time.
	StageWindowTotal

	// NumStages bounds the per-span stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "extract", "sketch", "probe", "combine", "merge",
	"queue_wait", "worker_hop", "window_total",
}

// String returns the stage's exposition name (the value of the stage label
// and the key of the span JSON "ns" object).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is the per-window record carried through the pipeline for sampled
// windows. Spans are pooled: obtain one from Collector.Begin (nil when the
// window is not sampled) and return it with Collector.End — never retain a
// Span after End.
type Span struct {
	// Stream is the owning stream's label (fleet stream id, facade stream
	// name, or "" for an anonymous engine).
	Stream string
	// Window is the engine's 1-based processed-window ordinal; StartFrame
	// and EndFrame delimit the window in key frames.
	Window     int64
	StartFrame int
	EndFrame   int
	// Related is the number of related queries the probe surfaced; Workers
	// the kernel's shard count; Plane the query-plane version the window
	// ran against.
	Related int
	Workers int
	Plane   uint64

	// NS holds the per-stage wall-clock spans in nanoseconds, indexed by
	// Stage. Unobserved stages stay zero.
	NS [NumStages]int64

	// AllocObjs holds per-stage allocated-object deltas for alloc-sampled
	// spans (see Collector.SetAllocEvery): sketch, the probe+combine shard
	// fork (attributed to StageProbe), merge, and the window total. Process
	// -wide counters, so concurrent streams bleed into each other's deltas;
	// at fleet idle or single-stream load they are exact. Zero when this
	// span was not alloc-sampled.
	AllocObjs [NumStages]int64

	// allocOn marks an alloc-sampled span; lastAllocObjs is the running
	// allocated-objects reading the next AllocMark diffs against.
	allocOn       bool
	lastAllocObjs uint64
	beginAlloc    uint64
}

// SetNS records one stage's duration in nanoseconds.
func (sp *Span) SetNS(st Stage, ns int64) { sp.NS[st] = ns }

// Set records one stage's duration.
func (sp *Span) Set(st Stage, d time.Duration) { sp.NS[st] = d.Nanoseconds() }

// reset clears a span for reuse, keeping nothing from the previous window.
func (sp *Span) reset() {
	*sp = Span{}
}
