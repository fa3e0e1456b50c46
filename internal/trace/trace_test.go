package trace

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestKindRoundTrip(t *testing.T) {
	for k := Born; k <= NearMiss; k++ {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind has no string form")
	}
}

func TestErrorBound(t *testing.T) {
	// K=800 at confidence 1−10⁻⁶: ε = sqrt(ln(2·10⁶)/1600) ≈ 0.0952.
	got := ErrorBound(800, DefaultConfidence)
	want := math.Sqrt(math.Log(2e6) / 1600)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ErrorBound(800) = %v, want %v", got, want)
	}
	if ErrorBound(0, DefaultConfidence) != 1 {
		t.Error("K<=0 must degrade to the trivial bound 1")
	}
	// More hashes tighten the bound.
	if ErrorBound(1600, DefaultConfidence) >= got {
		t.Error("bound did not shrink with K")
	}
}

// publishWindow journals one window's worth of events through a recorder,
// the way an engine does.
func publishWindow(r *Recorder, evs ...Event) {
	for _, ev := range evs {
		r.Query().Add(ev.Kind, int(ev.QID), int(ev.Start), int(ev.End), int(ev.Windows), float64(ev.Estimate), float64(ev.Margin))
	}
	r.Publish(r.FoldWindow())
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4, 2)
	r := NewRecorder(j, "ring", "sequential", "bit")
	for i := 0; i < 6; i++ {
		publishWindow(r, Event{Kind: Extended, QID: 1, Start: int32(10 * i), End: int32(10*i + 10), Windows: 1, Estimate: 0.5})
	}
	if got := j.EventCount(); got != 6 {
		t.Fatalf("EventCount = %d, want 6", got)
	}
	evs := j.Events(Filter{Kind: KindAny})
	if len(evs) != 4 {
		t.Fatalf("retained %d events, ring cap is 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(2 + i); ev.Seq != want {
			t.Errorf("event %d has Seq %d, want %d (oldest-first after eviction)", i, ev.Seq, want)
		}
	}
}

func TestEventsFilter(t *testing.T) {
	j := NewJournal(64, 8)
	ra := NewRecorder(j, "cam-a", "sequential", "bit")
	rb := NewRecorder(j, "cam-b", "sequential", "bit")
	publishWindow(ra,
		Event{Kind: Born, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1},
		Event{Kind: Extended, QID: 3, Start: 0, End: 10, Windows: 1, Estimate: 0.4},
		Event{Kind: Reported, QID: 3, Start: 0, End: 10, Windows: 1, Estimate: 0.8},
	)
	publishWindow(rb, Event{Kind: Extended, QID: 5, Start: 0, End: 10, Windows: 1, Estimate: 0.2})

	if got := j.Events(Filter{Kind: KindAny}); len(got) != 4 {
		t.Fatalf("unfiltered: %d events, want 4", len(got))
	}
	if got := j.Events(Filter{Kind: Reported}); len(got) != 1 || got[0].QID != 3 {
		t.Errorf("kind filter: %+v", got)
	}
	if got := j.Events(Filter{Kind: KindAny, QID: 5}); len(got) != 1 || got[0].StreamName != "cam-b" {
		t.Errorf("qid filter: %+v", got)
	}
	if got := j.Events(Filter{Kind: KindAny, Stream: "cam-a"}); len(got) != 3 {
		t.Errorf("stream filter: %d events, want 3", len(got))
	}
	if got := j.Events(Filter{Kind: KindAny, SinceSeq: 3}); len(got) != 1 || got[0].Seq != 3 {
		t.Errorf("since filter: %+v", got)
	}
	if got := j.Events(Filter{Kind: KindAny, Limit: 2}); len(got) != 2 || got[0].Seq != 2 {
		t.Errorf("limit keeps the most recent events: %+v", got)
	}
}

// TestRecorderReadsItsOwnStream: two streams that share a name on one
// journal (two detectors of one lineage, both named by their config) each
// read back only their own events and match records.
func TestRecorderReadsItsOwnStream(t *testing.T) {
	j := NewJournal(64, 8)
	ra := NewRecorder(j, "same", "sequential", "bit")
	rb := NewRecorder(j, "same", "sequential", "bit")
	publishWindow(ra, Event{Kind: Extended, QID: 3, Start: 0, End: 10, Windows: 1, Estimate: 0.4})
	publishWindow(rb,
		Event{Kind: Born, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1},
		Event{Kind: Extended, QID: 5, Start: 0, End: 10, Windows: 1, Estimate: 0.2},
	)
	a := ra.RecordMatch(3, 0, 10, 10, 1, 0.8, nil)
	rb.RecordMatch(5, 0, 10, 10, 1, 0.9, nil)
	rb.RecordMatch(5, 10, 20, 20, 1, 0.9, nil)

	if evs := ra.Events(0); len(evs) != 1 || evs[0].QID != 3 || evs[0].StreamName != "same" {
		t.Errorf("first stream's events: %+v", evs)
	}
	if evs := rb.Events(1); len(evs) != 1 || evs[0].QID != 5 {
		t.Errorf("second stream's latest event: %+v", evs)
	}
	if recs := ra.Matches(0); len(recs) != 1 || recs[0].ID != a {
		t.Errorf("first stream's records: %+v", recs)
	}
	if recs := rb.Matches(0); len(recs) != 2 || recs[0].QueryID != 5 {
		t.Errorf("second stream's records: %+v", recs)
	}
	if recs := rb.Matches(1); len(recs) != 1 || recs[0].StartFrame != 10 {
		t.Errorf("limit keeps the most recent record: %+v", recs)
	}
}

func TestMatchRecordTrajectoryAndEviction(t *testing.T) {
	j := NewJournal(64, 2)
	r := NewRecorder(j, "m", "sequential", "bit")
	// Three windows extend candidate (q=7, start=0); the trajectory must
	// collect their estimates oldest-first.
	for i, est := range []float64{0.3, 0.5, 0.9} {
		publishWindow(r, Event{Kind: Extended, QID: 7, Start: 0, End: int32(10*i + 10), Windows: int32(i + 1), Estimate: float32(est)})
	}
	id := r.RecordMatch(7, 0, 30, 30, 3, 0.9, nil)
	if id != 1 {
		t.Fatalf("first match id = %d", id)
	}
	if r.LastMatchID() != id {
		t.Errorf("LastMatchID = %d, want %d", r.LastMatchID(), id)
	}
	rec, ok := j.Match(id)
	if !ok {
		t.Fatal("match record not retained")
	}
	if rec.Stream != "m" || rec.QueryID != 7 || rec.Order != "sequential" || rec.Method != "bit" {
		t.Errorf("record %+v", rec)
	}
	want := []float32{0.3, 0.5, 0.9}
	if !reflect.DeepEqual(rec.Trajectory, want) {
		t.Errorf("trajectory %v, want %v", rec.Trajectory, want)
	}
	// Ring cap is 2: after two more records, id 1 must be evicted.
	r.RecordMatch(7, 40, 50, 50, 1, 0.8, nil)
	r.RecordMatch(7, 60, 70, 70, 1, 0.8, nil)
	if _, ok := j.Match(1); ok {
		t.Error("evicted record still served")
	}
	if _, ok := j.Match(3); !ok {
		t.Error("latest record missing")
	}
	if got := j.Matches(0); len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Errorf("Matches(0) = %+v", got)
	}
	if _, ok := j.Match(999); ok {
		t.Error("unknown id served")
	}
}

// TestFoldWindowOrder: however the kernel interleaves a window's per-query
// events, the fold orders them by (Start, QID, Kind) and appends the serial
// spine events last — the order /debug/events serves.
func TestFoldWindowOrder(t *testing.T) {
	events := []Event{
		{Kind: Extended, QID: 4, Start: 0, End: 10, Windows: 1, Estimate: 0.2},
		{Kind: Pruned, QID: 2, Start: 0, End: 10, Windows: 2, Estimate: 0.1, Margin: 0.05},
		{Kind: Extended, QID: 1, Start: 10, End: 20, Windows: 1, Estimate: 0.6},
		{Kind: Reported, QID: 1, Start: 10, End: 20, Windows: 1, Estimate: 0.8},
		{Kind: Extended, QID: 3, Start: 0, End: 10, Windows: 1, Estimate: 0.4},
		{Kind: Extended, QID: 6, Start: 20, End: 30, Windows: 1, Estimate: 0.3},
	}
	fold := func(reverse bool) []Event {
		r := NewRecorder(NewJournal(64, 8), "fold", "sequential", "bit")
		r.Serial().Add(Born, -1, 20, 30, 1, -1, 0)
		for i := range events {
			ev := events[i]
			if reverse {
				ev = events[len(events)-1-i]
			}
			r.Query().Add(ev.Kind, int(ev.QID), int(ev.Start), int(ev.End), int(ev.Windows), float64(ev.Estimate), float64(ev.Margin))
		}
		return append([]Event(nil), r.FoldWindow()...)
	}
	want := fold(false)
	if got := fold(true); !reflect.DeepEqual(got, want) {
		t.Errorf("fold depends on insertion order:\nforward: %+v\nreverse: %+v", want, got)
	}
	for i := 1; i < len(want)-1; i++ {
		a, b := want[i-1], want[i]
		if a.Start > b.Start || a.Start == b.Start && (a.QID > b.QID || a.QID == b.QID && a.Kind > b.Kind) {
			t.Errorf("events %d and %d out of (Start, QID, Kind) order: %+v, %+v", i-1, i, a, b)
		}
	}
	// Serial spine events must come last, after the sorted per-query phase.
	if last := want[len(want)-1]; last.Kind != Born || last.QID != -1 {
		t.Errorf("serial event not appended last: %+v", want[len(want)-1])
	}
}

func TestSubscribe(t *testing.T) {
	j := NewJournal(64, 8)
	r := NewRecorder(j, "sub", "sequential", "bit")
	ch, cancel := j.Subscribe(4)
	publishWindow(r, Event{Kind: Born, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1})
	select {
	case batch := <-ch:
		if len(batch) != 1 || batch[0].Kind != Born || batch[0].StreamName != "sub" {
			t.Errorf("batch %+v", batch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no batch delivered")
	}
	// A full subscriber must never block the publisher.
	for i := 0; i < 10; i++ {
		publishWindow(r, Event{Kind: Extended, QID: 1, Start: int32(10 * i), End: int32(10*i + 10), Windows: 1, Estimate: 0.1})
	}
	cancel()
	cancel() // idempotent
	for range ch {
	} // closed after drain — would hang forever if cancel leaked the channel
	// Publishing after cancel must not panic or deliver.
	publishWindow(r, Event{Kind: Expired, QID: -1, Start: 0, End: 10, Windows: 1, Estimate: -1})
}

func TestRecorderEnabledToggle(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if nilRec.LastMatchID() != 0 {
		t.Error("nil recorder has a match id")
	}
	j := NewJournal(16, 4)
	r := NewRecorder(j, "", "geometric", "sketch")
	if !r.Enabled() {
		t.Error("fresh recorder not enabled")
	}
	if prev := r.SetEnabled(false); !prev || r.Enabled() {
		t.Error("SetEnabled(false) did not stick")
	}
	if r.StreamName() != "stream-0" {
		t.Errorf("auto name = %q", r.StreamName())
	}
}
