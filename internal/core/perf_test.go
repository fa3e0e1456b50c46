package core_test

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/fleet"
	"vdsms/internal/perfobs"
)

// keptSpan is what a kept span says independently of the clock: whose
// window it is, which one, and which stages observed it.
type keptSpan struct {
	stream string
	window int64
	stages []string
}

// perfRun pushes one multi-query stream under three labels into a span
// collector sampling every window, and returns the kept spans sorted by
// stream and window. With workers 0 each label runs on an isolated engine;
// otherwise the three streams share a fleet.Pool of that many workers,
// pushed concurrently in 7-frame batches. The fleet's queue stages are left
// out: they fall on the first window of each pass, which scheduling picks.
func perfRun(t *testing.T, workers int) []keptSpan {
	t.Helper()
	cfg := core.Config{K: 192, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10}
	rng := rand.New(rand.NewSource(42))
	ids := []int{1, 2, 3, 4, 5}
	queries := make([][]uint64, len(ids))
	for i := range queries {
		queries[i] = shots(rng, i+1, 40+10*i)
	}
	stream := shots(rng, 50, 95)
	for _, qi := range []int{2, 0, 3} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, shots(rng, 60+qi, 57)...)
	}
	labels := []string{"a", "b", "c"}
	col := perfobs.NewCollector(1024)
	col.SetSampleEvery(1)
	if workers == 0 {
		for _, label := range labels {
			e, err := core.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddQueries(ids, queries); err != nil {
				t.Fatal(err)
			}
			e.Observe(core.Observer{Stream: label, Spans: col})
			e.PushFrames(stream)
			e.Flush()
		}
	} else {
		p, err := fleet.New(fleet.Config{Engine: cfg, Workers: workers, QueueFrames: len(stream)})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.AddQueries(ids, queries); err != nil {
			t.Fatal(err)
		}
		p.Observe(core.Observer{Spans: col})
		var wg sync.WaitGroup
		for _, label := range labels {
			s, err := p.Attach(label)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(stream); i += 7 {
					if err := s.Push(stream[i:min(i+7, len(stream))]); err != nil {
						t.Error(err)
					}
				}
				s.Detach(true)
			}()
		}
		wg.Wait()
	}
	var kept []keptSpan
	for _, r := range col.Spans(0) {
		k := keptSpan{stream: r.Stream, window: r.Window}
		for st := perfobs.Stage(0); st < perfobs.NumStages; st++ {
			if _, ok := r.NS[st.String()]; ok && st != perfobs.StageQueueWait && st != perfobs.StageWorkerHop {
				k.stages = append(k.stages, st.String())
			}
		}
		kept = append(kept, k)
	}
	slices.SortFunc(kept, func(x, y keptSpan) int {
		return cmp.Or(strings.Compare(x.stream, y.stream), cmp.Compare(x.window, y.window))
	})
	if len(kept) == 0 {
		t.Fatal("no spans kept; Observe wiring is broken")
	}
	return kept
}

// TestSpanFoldWorkerInvariant: the kept spans — stream, window and the
// stages each observed — must be the same whether every stream runs on an
// engine of its own or on a fleet pool of 1, 3 or 4 workers. Durations are
// wall-clock and necessarily vary; the set must not, or what the span ring
// says becomes a function of deployment shape.
func TestSpanFoldWorkerInvariant(t *testing.T) {
	alone := perfRun(t, 0)
	for _, workers := range []int{1, 3, 4} {
		if pooled := perfRun(t, workers); !reflect.DeepEqual(pooled, alone) {
			t.Errorf("kept spans diverge at %d workers\nalone:  %v\npooled: %v",
				workers, alone, pooled)
		}
	}
}
