// Package perfobs is the performance-attribution layer of the VDSMS: it
// answers *where the time and the allocations of a window went*, per stage
// and per stream, at fleet scale — the measurement substrate the speed work
// of ROADMAP open item 1 gates against.
//
// It is built from four pieces, all stdlib-only and layered on
// internal/telemetry:
//
//   - Span records. Every timed basic window fills its engine's Span: the
//     stages staged before it runs (front-end decode/extract, fleet queue
//     wait and worker hop), the kernel stages and the window total. Each
//     stage is summed once, into its StageSeconds histogram, for every
//     timed window. Spans head-sampled or over the slow-window budget are
//     also kept: copied into the lineage's Collector ring, exported as JSON
//     lines through /debug/spans and -span-log.
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
//     of a lineage without per-stream metric labels; see Outliers.
//
//   - Continuous profiling. An opt-in Profiler periodically captures CPU
//     and heap profiles into a bounded ring of files so a production
//     incident always has a recent profile on disk; see profiler.go.
//
// Hot-path contract: a window that is neither sampled nor over budget
// takes no lock and allocates nothing; with sampling disabled (the
// default) the head draw is one atomic load. A kept record is copied into
// the ring under one short mutex, so steady-state keeping allocates
// nothing either (JSON rendering happens at export time, on the reader's
// goroutine).
package perfobs

import "vdsms/internal/telemetry"

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
	// kernel's stages; merge covers the candidate-list work around probe and
	// combine.
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

// StageSeconds holds each stage's registry histogram, observed once per
// timed window (queue wait and worker hop once per fleet pass, decode and
// extract only where a front end staged them): the one per-stage summary,
// which /stats and vcdmon -explain read.
var StageSeconds = func() (h [NumStages]*telemetry.Histogram) {
	for st := range h {
		switch Stage(st) {
		case StageQueueWait:
			h[st] = telemetry.Default.Histogram("vcd_fleet_queue_wait_seconds",
				"Time a pass's frames waited in a stream queue before a runner picked them up.",
				telemetry.DurationBuckets)
		case StageWorkerHop:
			h[st] = telemetry.Default.Histogram("vcd_fleet_worker_hop_seconds",
				"Scheduling hop between a stream entering the ready queue and its pass starting.",
				telemetry.DurationBuckets)
		default:
			h[st] = telemetry.Default.Histogram("vcd_stage_duration_seconds",
				"Wall-clock duration of pipeline stages, one observation per basic window.",
				telemetry.DurationBuckets, telemetry.L("stage", stageNames[st]))
		}
	}
	return h
}()

// String returns the stage's exposition name (the value of the stage label
// and the key of the span JSON "ns" object).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is the per-window observation record. Each engine owns one and
// fills it once per timed window; its observers read it during the call
// and Collector.Keep copies it, so nobody retains the engine's Span.
type Span struct {
	// Stream is the owning stream's label (fleet stream id, facade stream
	// name, or "" for an anonymous engine).
	Stream string
	// Window is the engine's 1-based processed-window ordinal; StartFrame
	// and EndFrame delimit the window in key frames.
	Window     int64
	StartFrame int
	EndFrame   int
	// Related is the number of related queries the probe surfaced; Plane
	// the query-plane version the window ran against.
	Related int
	Plane   uint64

	// NS holds the per-stage wall-clock spans in nanoseconds, indexed by
	// Stage. Unobserved stages stay zero.
	NS [NumStages]int64

	// AllocObjs holds per-stage allocated-object deltas for alloc-sampled
	// spans (see Collector.SetAllocEvery): sketch, probe+combine
	// (attributed to StageProbe), merge, and the window total. Process
	// -wide counters, so concurrent streams bleed into each other's deltas;
	// at fleet idle or single-stream load they are exact. Zero when this
	// span was not alloc-sampled.
	AllocObjs [NumStages]int64

	// Sampled marks a window that won the head-sampling draw
	// (Collector.Begin); Slow one whose window total exceeded its stream's
	// slow-window budget. Either keeps the record.
	Sampled, Slow bool

	// allocOn marks an alloc-sampled span; lastAllocObjs is the running
	// allocated-objects reading the next AllocMark diffs against.
	allocOn       bool
	lastAllocObjs uint64
	beginAlloc    uint64
}
