// Package trace is the decision-provenance layer of the VDSMS: a bounded,
// lock-light event journal recording the trajectory of every candidate
// sequence through the paper's machinery (basic windows → candidate list
// C_L → Lemma 2 prunes → λL expiry → report at sim ≥ δ), plus a compact
// provenance record per emitted match and a sampled exact-Jaccard audit of
// the K-min-hash estimator against Theorem 1's deviation bound.
//
// Design constraints, in order:
//
//  1. With tracing disabled the matching kernel must not change at all: no
//     allocations, no atomics beyond one per-window enabled check, and a
//     byte-identical match stream. Every recording site in internal/core is
//     guarded by a single nil check on a per-window recorder pointer.
//  2. With tracing enabled, events are appended to the recorder's
//     single-writer buffers (no locks) and folded into the journal once per
//     window in (Start, QID, Kind) order.
//  3. The journal is bounded: a ring buffer overwrites the oldest events,
//     so a forgotten-enabled tracer costs fixed memory, never growth.
//
// Events, match records and audit results are consumed by GET /debug/events,
// GET /debug/matches/{id}, vcdmon -explain and the slog bridge (LogEvents).
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"vdsms/internal/telemetry"
)

// Kind discriminates candidate-lifecycle events.
type Kind uint8

const (
	// Born: a new candidate sequence entered C_L (size-1, at the current
	// basic window). Candidate-level: QID is -1.
	Born Kind = iota
	// Extended: a candidate (or the basic window alone) was evaluated
	// against a query; Estimate carries the similarity estimate — the
	// per-window trajectory points an explain record is built from.
	Extended
	// Pruned: the Lemma 2 prune dropped a query from a candidate; Margin is
	// how far past the prune line the signature was, as a fraction of K.
	Pruned
	// Dropped: a query was dropped from a candidate because a window was
	// not related to it (Section V.B's consecutive-relatedness rule).
	Dropped
	// Expired: the candidate exceeded the λL length bound for the query
	// (QID set), or left C_L entirely (QID -1).
	Expired
	// Reported: the candidate crossed sim ≥ δ and a match was emitted.
	Reported
	// NearMiss: the estimate peaked inside [δ−ε, δ) — within estimator
	// noise of a report; Margin is δ − estimate.
	NearMiss

	// KindAny matches every kind in a Filter.
	KindAny Kind = 0xff
)

var kindNames = [...]string{"born", "extended", "pruned", "dropped", "expired", "reported", "near_miss"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// ParseKind maps a kind name (as produced by String) back to its value.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one candidate-lifecycle observation. The struct is fixed-size
// and pointer-free so the window buffers stay flat and the journal ring is
// one contiguous allocation.
type Event struct {
	// Seq is the journal-wide sequence number, assigned at fold time.
	Seq uint64 `json:"seq"`
	// Stream identifies the monitored stream (see Journal.NewStream).
	Stream uint32 `json:"-"`
	// StreamName is filled when rendering (filter results), not stored.
	StreamName string `json:"stream,omitempty"`
	// Kind is the lifecycle transition.
	Kind Kind `json:"kind"`
	// QID is the query the event concerns, or -1 for candidate-level
	// events (Born, candidate Expired).
	QID int32 `json:"query"`
	// Start is the candidate's start frame (the window start for
	// window-alone evaluations).
	Start int32 `json:"startFrame"`
	// End is the end frame of the basic window that produced the event.
	End int32 `json:"endFrame"`
	// Windows is the candidate size in basic windows at event time.
	Windows int32 `json:"windows"`
	// Estimate is the similarity estimate at event time, or -1 when the
	// event kind carries none.
	Estimate float32 `json:"estimate"`
	// Margin is kind-specific: distance past the Lemma 2 prune line
	// (Pruned) or below the report threshold (NearMiss), else 0.
	Margin float32 `json:"margin,omitempty"`
}

// AuditResult is one sampled exact-Jaccard audit of a report or prune
// decision: the engine's estimate against the exact similarity recomputed
// from raw cell-id sets via internal/partition, judged by Theorem 1's
// deviation bound.
type AuditResult struct {
	// Exact is the exact Jaccard similarity of the candidate's cell-id set
	// and the query's.
	Exact float64 `json:"exactJaccard"`
	// Estimate is what the sketch/signature machinery believed.
	Estimate float64 `json:"estimate"`
	// AbsError is |Estimate − Exact|.
	AbsError float64 `json:"absError"`
	// Bound is Theorem 1's ε for the configured K (see ErrorBound).
	Bound float64 `json:"bound"`
	// Violated reports AbsError > Bound — with a correctly configured K
	// this happens with probability below 1−confidence per audit.
	Violated bool `json:"violated"`
}

// MatchRecord is the provenance record attached to one emitted match: the
// full explain payload of GET /debug/matches/{id} and vcdmon -explain.
type MatchRecord struct {
	// ID is the journal-wide match id (1-based, assigned at emission).
	ID uint64 `json:"id"`
	// Stream is the monitored stream's name; stream its journal id.
	Stream string `json:"stream"`
	stream uint32
	// QueryID is the matched continuous query.
	QueryID int `json:"query"`
	// StartFrame/EndFrame delimit the matching candidate in key frames.
	StartFrame int `json:"startFrame"`
	EndFrame   int `json:"endFrame"`
	// DetectedAt is the key frame at which the match was reported.
	DetectedAt int `json:"detectedAt"`
	// Windows is the candidate size in basic windows.
	Windows int `json:"windows"`
	// Similarity is the estimate that crossed δ.
	Similarity float64 `json:"similarity"`
	// Order and Method are the combination order and comparison
	// representation that produced the match.
	Order  string `json:"order"`
	Method string `json:"method"`
	// Trajectory is the per-window similarity-estimate trajectory of the
	// (candidate, query) pair, oldest window first, reconstructed from the
	// Extended events still in the journal (older points may have been
	// evicted by the ring).
	Trajectory []float32 `json:"trajectory,omitempty"`
	// Audit, when the report decision was sampled by the exact-audit
	// channel, carries the estimator-error measurement.
	Audit *AuditResult `json:"audit,omitempty"`
}

// ErrorBound returns Theorem 1's two-sided deviation bound for a K-min-hash
// estimator: the smallest ε such that P(|est − J| ≥ ε) ≤ 1 − confidence
// under the Hoeffding bound P(|est − J| ≥ ε) ≤ 2·exp(−2ε²K) — the K
// position indicators are Bernoulli(J) with the min-wise family, so the
// fraction of equal positions concentrates at rate √K. For K=800 and
// confidence 1−10⁻⁶, ε ≈ 0.095.
func ErrorBound(k int, confidence float64) float64 {
	if k <= 0 {
		return 1
	}
	tail := 1 - confidence
	if tail <= 0 || tail >= 2 {
		tail = 1e-6
	}
	return math.Sqrt(math.Log(2/tail) / (2 * float64(k)))
}

// DefaultConfidence is the confidence level the audit channel judges
// estimator errors at when the caller does not choose one.
const DefaultConfidence = 1 - 1e-6

// Audit metrics, process-wide (the audit path is serial per engine; plain
// atomic counters suffice).
var (
	telAuditTotal = [2]*telemetry.Counter{
		telemetry.Default.Counter("vcd_sketch_audit_total",
			"Report/prune decisions exact-audited against raw cell-id sets.",
			telemetry.L("decision", "report")),
		telemetry.Default.Counter("vcd_sketch_audit_total",
			"Report/prune decisions exact-audited against raw cell-id sets.",
			telemetry.L("decision", "prune")),
	}
	telAuditErr = [2]*telemetry.Histogram{
		telemetry.Default.Histogram("vcd_sketch_error_abs",
			"Absolute K-min-hash estimator error |estimate − exact Jaccard| of audited decisions.",
			ErrorBuckets, telemetry.L("decision", "report")),
		telemetry.Default.Histogram("vcd_sketch_error_abs",
			"Absolute K-min-hash estimator error |estimate − exact Jaccard| of audited decisions.",
			ErrorBuckets, telemetry.L("decision", "prune")),
	}
	telAuditViolations = telemetry.Default.Counter("vcd_sketch_error_bound_violations_total",
		"Audited decisions whose estimator error exceeded Theorem 1's deviation bound — nonzero values indicate sketch misconfiguration (K too small for δ).")
	telAuditSkipped = telemetry.Default.Counter("vcd_sketch_audit_skipped_total",
		"Sampled decisions that could not be audited (raw cell ids unavailable, e.g. after checkpoint restore).")
)

// ErrorBuckets is the estimator-error histogram layout: fine resolution
// around the K=800 bound (≈0.095) so drift is visible well before recall
// suffers.
var ErrorBuckets = []float64{
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5,
}

// auditDecision indexes the per-decision metric pairs.
const (
	AuditReport = 0
	AuditPrune  = 1
)

// ObserveAudit publishes one audit measurement. decision is AuditReport or
// AuditPrune.
func ObserveAudit(decision int, res AuditResult) {
	telAuditTotal[decision].Inc()
	telAuditErr[decision].Observe(res.AbsError)
	if res.Violated {
		telAuditViolations.Inc()
	}
}

// ObserveAuditSkipped counts a sampled decision the auditor had to skip.
func ObserveAuditSkipped() { telAuditSkipped.Inc() }

// Journal metrics.
var (
	telEventsByKind = func() [len(kindNames)]*telemetry.Counter {
		var out [len(kindNames)]*telemetry.Counter
		for i, n := range kindNames {
			out[i] = telemetry.Default.Counter("vcd_trace_events_total",
				"Candidate-lifecycle events recorded by the trace journal.",
				telemetry.L("kind", n))
		}
		return out
	}()
	telEventsEvicted = telemetry.Default.Counter("vcd_trace_events_evicted_total",
		"Events overwritten by the bounded journal ring before being read.")
	telSubDropped = telemetry.Default.Counter("vcd_trace_subscriber_dropped_total",
		"Event batches dropped because a subscriber's channel was full.")
	telTraceMatches = telemetry.Default.Counter("vcd_trace_matches_total",
		"Provenance records attached to emitted matches.")
)

// DefaultEventCap and DefaultMatchCap size the Default journal's rings when
// a caller arms tracing without choosing capacities.
const (
	DefaultEventCap = 16384
	DefaultMatchCap = 1024
)

// Journal is the bounded event store. One journal serves every stream of a
// process (the deployment reality: /debug/events is a process endpoint);
// engines write through per-stream Recorders. All methods are safe for
// concurrent use; the write path locks once per basic window, not per
// event.
type Journal struct {
	mu sync.Mutex

	eventCap int
	events   []Event // ring, len == eventCap once full
	next     uint64  // total events ever appended == next Seq

	matchCap int
	matches  []MatchRecord // ring
	matchN   uint64        // total records ever appended == next ID

	streams []string // stream id → name

	subs   map[int]chan []Event
	subSeq int
}

// NewJournal builds a journal with the given ring capacities (events and
// match records). Non-positive capacities fall back to the defaults.
func NewJournal(eventCap, matchCap int) *Journal {
	if eventCap <= 0 {
		eventCap = DefaultEventCap
	}
	if matchCap <= 0 {
		matchCap = DefaultMatchCap
	}
	return &Journal{eventCap: eventCap, matchCap: matchCap}
}

// Default is the process-wide journal, the analogue of telemetry.Default:
// the facade's recorders write to it and the server's /debug endpoints read
// it. Rings are allocated lazily, so unarmed binaries pay nothing.
var Default = NewJournal(DefaultEventCap, DefaultMatchCap)

// SetEventCapacity resizes the event ring (existing events are dropped —
// call at arm time, not mid-trace). Non-positive keeps the current size.
func (j *Journal) SetEventCapacity(n int) {
	if n <= 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.eventCap = n
	j.events = nil
	// next keeps counting: Seq stays monotonic across resizes.
}

// NewStream registers a monitored stream and returns its id. An empty name
// is auto-assigned "stream-N".
func (j *Journal) NewStream(name string) uint32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	id := uint32(len(j.streams))
	if name == "" {
		name = fmt.Sprintf("stream-%d", id)
	}
	j.streams = append(j.streams, name)
	return id
}

// streamName resolves an id under the lock.
func (j *Journal) streamName(id uint32) string {
	if int(id) < len(j.streams) {
		return j.streams[id]
	}
	return fmt.Sprintf("stream-%d", id)
}

// append folds one window's events in, assigning sequence numbers, and
// fans a copy out to subscribers. Called once per basic window per traced
// engine.
func (j *Journal) append(evs []Event) {
	if len(evs) == 0 {
		return
	}
	j.mu.Lock()
	if j.events == nil {
		j.events = make([]Event, 0, j.eventCap)
	}
	for i := range evs {
		evs[i].Seq = j.next
		j.next++
		telEventsByKind[evs[i].Kind].Inc()
		if len(j.events) < j.eventCap {
			j.events = append(j.events, evs[i])
		} else {
			j.events[int(evs[i].Seq)%j.eventCap] = evs[i]
			telEventsEvicted.Inc()
		}
	}
	var fanout []chan []Event
	if len(j.subs) > 0 {
		fanout = make([]chan []Event, 0, len(j.subs))
		for _, ch := range j.subs {
			fanout = append(fanout, ch)
		}
	}
	var batch []Event
	if len(fanout) > 0 {
		batch = append([]Event(nil), evs...)
		for i := range batch {
			batch[i].StreamName = j.streamName(batch[i].Stream)
		}
	}
	j.mu.Unlock()
	for _, ch := range fanout {
		select {
		case ch <- batch:
		default:
			telSubDropped.Inc()
		}
	}
}

// Subscribe registers a live event consumer: each folded window's batch is
// sent to the returned channel (non-blocking — slow consumers drop batches,
// counted by vcd_trace_subscriber_dropped_total). cancel unregisters and
// closes the channel; it is safe to call more than once.
func (j *Journal) Subscribe(buffer int) (<-chan []Event, func()) {
	if buffer < 1 {
		buffer = 16
	}
	ch := make(chan []Event, buffer)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[int]chan []Event)
	}
	id := j.subSeq
	j.subSeq++
	j.subs[id] = ch
	j.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			j.mu.Lock()
			delete(j.subs, id)
			j.mu.Unlock()
			close(ch)
		})
	}
	return ch, cancel
}

// Filter selects events from the journal.
type Filter struct {
	// Stream restricts to one stream name; empty matches all.
	Stream string
	// QID restricts to one query id; 0 matches all (query ids are
	// positive; candidate-level events carry -1 and match only QID 0).
	QID int
	// Kind restricts to one event kind; KindAny matches all.
	Kind Kind
	// SinceSeq keeps only events with Seq >= SinceSeq.
	SinceSeq uint64
	// Limit caps the result to the most recent N events; 0 means all
	// retained.
	Limit int
}

// Events returns the retained events matching f, oldest first, with
// StreamName resolved.
func (j *Journal) Events(f Filter) []Event { return j.eventsOf(f, -1) }

// eventsOf is Events restricted to the stream with journal id only,
// unless only is negative.
func (j *Journal) eventsOf(f Filter, only int64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	out := make([]Event, 0, min(n, 256))
	// Ring order: once full, the oldest event lives at next % cap.
	start := 0
	if n == j.eventCap {
		start = int(j.next) % j.eventCap
	}
	for i := 0; i < n; i++ {
		ev := j.events[(start+i)%n]
		if ev.Seq < f.SinceSeq {
			continue
		}
		if f.Kind != KindAny && ev.Kind != f.Kind {
			continue
		}
		if f.QID != 0 && int(ev.QID) != f.QID {
			continue
		}
		if f.Stream != "" && j.streamName(ev.Stream) != f.Stream ||
			only >= 0 && int64(ev.Stream) != only {
			continue
		}
		ev.StreamName = j.streamName(ev.Stream)
		out = append(out, ev)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// EventCount returns the total number of events ever journaled.
func (j *Journal) EventCount() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// recordMatch stores a provenance record, assigning its id, and builds its
// trajectory from the Extended events still retained for the same
// (stream, query, candidate start).
func (j *Journal) recordMatch(rec MatchRecord, stream uint32) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.matchN++
	rec.ID = j.matchN
	rec.Stream, rec.stream = j.streamName(stream), stream
	for i := 0; i < len(j.events); i++ {
		idx := i
		if len(j.events) == j.eventCap {
			idx = (int(j.next) + i) % j.eventCap
		}
		ev := j.events[idx]
		if ev.Stream == stream && ev.Kind == Extended &&
			int(ev.QID) == rec.QueryID && int(ev.Start) == rec.StartFrame {
			rec.Trajectory = append(rec.Trajectory, ev.Estimate)
		}
	}
	if j.matches == nil {
		j.matches = make([]MatchRecord, 0, j.matchCap)
	}
	if len(j.matches) < j.matchCap {
		j.matches = append(j.matches, rec)
	} else {
		j.matches[int(rec.ID-1)%j.matchCap] = rec
	}
	telTraceMatches.Inc()
	return rec.ID
}

// Match returns the provenance record with the given id, if still retained.
func (j *Journal) Match(id uint64) (MatchRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if id == 0 || id > j.matchN {
		return MatchRecord{}, false
	}
	var rec MatchRecord
	if len(j.matches) < j.matchCap {
		if int(id-1) >= len(j.matches) {
			return MatchRecord{}, false
		}
		rec = j.matches[id-1]
	} else {
		rec = j.matches[int(id-1)%j.matchCap]
	}
	if rec.ID != id {
		return MatchRecord{}, false // evicted by the ring
	}
	return rec, true
}

// Matches returns the most recent retained provenance records (up to
// limit; 0 means all retained), oldest first.
func (j *Journal) Matches(limit int) []MatchRecord { return j.matchesOf(limit, -1) }

// matchesOf is Matches restricted to the stream with journal id only,
// unless only is negative.
func (j *Journal) matchesOf(limit int, only int64) []MatchRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.matches)
	out := make([]MatchRecord, 0, n)
	start := 0
	if n == j.matchCap {
		start = int(j.matchN) % j.matchCap
	}
	for i := 0; i < n; i++ {
		if rec := j.matches[(start+i)%n]; only < 0 || int64(rec.stream) == only {
			out = append(out, rec)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}
