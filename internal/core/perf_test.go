package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"vdsms/internal/perfobs"
	"vdsms/internal/qindex"
)

// perfRun pushes a fixed multi-query workload through one engine wired to a
// private span collector sampling every window, and returns the
// deterministic projection of the fold. With onWorker set the engine is
// driven as a fleet worker drives it: in 7-frame pushes on a probe scratch
// it shares with a sibling engine that has no collector.
func perfRun(t *testing.T, onWorker bool) perfobs.AggCounts {
	t.Helper()
	col := perfobs.NewCollector(256)
	col.SetSampleEvery(1)
	cfg := Config{K: 192, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := NewEngineWith(cfg, e.Queries())
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(Observer{Stream: "det-test", Spans: col})
	rng := rand.New(rand.NewSource(42))
	queries := make([][]uint64, 5)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 40+10*i)
		if err := e.AddQuery(i+1, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 50, 95)...)
	for _, qi := range []int{2, 0, 3} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 60+qi, 57)...)
	}
	if onWorker {
		ps := new(qindex.ProbeScratch)
		for i := 0; i < len(stream); i += 7 {
			end := min(i+7, len(stream))
			e.PushFramesOn(ps, stream[i:end])
			sib.PushFramesOn(ps, stream[len(stream)-end:len(stream)-i])
		}
	} else {
		e.PushFrames(stream)
	}
	e.Flush()
	agg := col.Aggregate()
	if agg.Windows == 0 {
		t.Fatal("no spans sampled; Observe wiring is broken")
	}
	return agg.Counts()
}

// TestSpanFoldWorkerInvariant: the deterministic projection of the span
// fold — windows sampled, per-stage observation counts, related-candidate
// sum — must be byte-identical whether the engine runs alone or on a fleet
// worker beside another engine. Durations are wall-clock and necessarily
// vary; the counts must not, or span aggregates become a function of
// deployment shape.
func TestSpanFoldWorkerInvariant(t *testing.T) {
	alone := perfRun(t, false)
	pooled := perfRun(t, true)
	if !reflect.DeepEqual(pooled, alone) {
		t.Errorf("span fold counts diverge\nalone:       %+v\non a worker: %+v", alone, pooled)
	}
	aj, _ := json.Marshal(alone)
	pj, _ := json.Marshal(pooled)
	if string(aj) != string(pj) {
		t.Errorf("JSON projection diverges\nalone:       %s\non a worker: %s", aj, pj)
	}
}

// TestPendingSpanConsumedOncePerWindow: staged front-end/fleet stage
// nanoseconds must land on exactly the next window's record and never smear
// into later windows, sampled or not.
func TestPendingSpanConsumedOncePerWindow(t *testing.T) {
	col := perfobs.NewCollector(64)
	col.SetSampleEvery(1)
	e, err := NewEngine(Config{K: 64, Seed: 1, Delta: 0.5, Lambda: 2, WindowFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(Observer{Stream: "s", Spans: col})
	rng := rand.New(rand.NewSource(7))
	if err := e.AddQuery(1, idStream(rng, 1, 12)); err != nil {
		t.Fatal(err)
	}
	e.Stage(perfobs.StageQueueWait, 12345)
	e.PushFrames(idStream(rng, 9, 12)) // three basic windows
	e.Flush()
	spans := col.Spans(0)
	if len(spans) < 2 {
		t.Fatalf("sampled %d spans, want >= 2", len(spans))
	}
	if got := spans[0].NS["queue_wait"]; got != 12345 {
		t.Errorf("first window queue_wait = %d, want 12345", got)
	}
	for i, sp := range spans[1:] {
		if ns, ok := sp.NS["queue_wait"]; ok {
			t.Errorf("window %d inherited stale queue_wait = %d", i+1, ns)
		}
	}
}
