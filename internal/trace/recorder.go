package trace

import (
	"sort"
	"sync/atomic"
)

// Recorder is one engine's write handle into a Journal. The engine writes
// a window's events into the two logs and FoldWindow journals them in one
// order, so the recorder itself needs no locking beyond the journal's
// once-per-window append.
//
// The enabled flag may be flipped at runtime (POST /debug/events arming,
// vcdmon -explain); the engine samples it once per window, so a toggle
// never tears a window's event set.
type Recorder struct {
	j      *Journal
	stream uint32
	on     atomic.Bool

	order, method string

	query   Log
	serial  Log
	scratch []Event // fold buffer, reused across windows

	lastMatch atomic.Uint64
}

// NewRecorder registers a stream with the journal and returns its
// recorder. order and method label provenance records ("sequential"/
// "geometric", "bit"/"sketch"). The recorder starts enabled.
func NewRecorder(j *Journal, streamName string, order, method string) *Recorder {
	r := &Recorder{
		j:      j,
		stream: j.NewStream(streamName),
		order:  order,
		method: method,
	}
	r.on.Store(true)
	return r
}

// Enabled reports whether the engine should record this window.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// SetEnabled toggles recording and returns the previous state.
func (r *Recorder) SetEnabled(on bool) bool { return r.on.Swap(on) }

// StreamName returns the journal name of the recorder's stream.
func (r *Recorder) StreamName() string {
	r.j.mu.Lock()
	defer r.j.mu.Unlock()
	return r.j.streamName(r.stream)
}

// Journal returns the journal this recorder writes to.
func (r *Recorder) Journal() *Journal { return r.j }

// Matches returns the retained provenance records of this recorder's
// stream, oldest first (up to limit; 0 means all retained). Records are
// selected by stream id, so two streams sharing a name never read each
// other's.
func (r *Recorder) Matches(limit int) []MatchRecord { return r.j.matchesOf(limit, int64(r.stream)) }

// Events is Matches for the retained lifecycle events.
func (r *Recorder) Events(limit int) []Event {
	return r.j.eventsOf(Filter{Kind: KindAny, Limit: limit}, int64(r.stream))
}

// Log is a single-writer event buffer for one window.
type Log struct {
	ev []Event
}

// Query returns the buffer for per-query events (extended, pruned,
// dropped, expired, reported, near-miss). The pointer is stable for the
// recorder's lifetime.
func (r *Recorder) Query() *Log { return &r.query }

// Serial returns the buffer for events recorded on the serial spine
// (candidate birth and expiry, structural bucket changes).
func (r *Recorder) Serial() *Log { return &r.serial }

// Add appends one event. est < 0 means "no estimate".
func (l *Log) Add(k Kind, qid, start, end, windows int, est, margin float64) {
	l.ev = append(l.ev, Event{
		Kind:     k,
		QID:      int32(qid),
		Start:    int32(start),
		End:      int32(end),
		Windows:  int32(windows),
		Estimate: float32(est),
		Margin:   float32(margin),
	})
}

// FoldWindow orders the window's per-query events by (Start, QID, Kind),
// ties kept in insertion order, appends the serial spine events after them
// and resets both buffers. The returned slice is valid until the next
// FoldWindow.
func (r *Recorder) FoldWindow() []Event {
	out := append(r.scratch[:0], r.query.ev...)
	r.query.ev = r.query.ev[:0]
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.QID != y.QID {
			return x.QID < y.QID
		}
		return x.Kind < y.Kind
	})
	// Serial spine events (birth, expiry) follow the per-query phase they
	// conclude.
	out = append(out, r.serial.ev...)
	r.serial.ev = r.serial.ev[:0]
	r.scratch = out
	return out
}

// Publish stamps the window's folded events with the recorder's stream and
// journals them.
func (r *Recorder) Publish(evs []Event) {
	for i := range evs {
		evs[i].Stream = r.stream
	}
	r.j.append(evs)
}

// RecordMatch attaches a provenance record to an emitted match and returns
// its journal id. Runs on the serial spine, in emission order, so ids are
// deterministic for a deterministic match stream.
func (r *Recorder) RecordMatch(qid, start, end, detectedAt, windows int, sim float64, audit *AuditResult) uint64 {
	id := r.j.recordMatch(MatchRecord{
		QueryID:    qid,
		StartFrame: start,
		EndFrame:   end,
		DetectedAt: detectedAt,
		Windows:    windows,
		Similarity: sim,
		Order:      r.order,
		Method:     r.method,
		Audit:      audit,
	}, r.stream)
	r.lastMatch.Store(id)
	return id
}

// LastMatchID returns the journal id of the most recent match this
// recorder emitted (0 when none yet). Safe to call from an OnMatch
// callback — record creation happens before the callback fires.
func (r *Recorder) LastMatchID() uint64 {
	if r == nil {
		return 0
	}
	return r.lastMatch.Load()
}
