package core

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentChurnUnderParallelEngines stresses the shared-QuerySet
// deployment the paper targets: several engines monitor streams in
// parallel goroutines while another goroutine subscribes and unsubscribes
// queries the whole time.
// The assertions are deliberately weak (no panics, bounded candidate
// state, every engine sees every frame); the value of the test is the
// interleaving itself under -race.
func TestConcurrentChurnUnderParallelEngines(t *testing.T) {
	const engines = 3
	frames := 4000
	churns := 300
	if testing.Short() {
		frames = 600
		churns = 40
	}

	qs, err := NewQuerySet(96, 21, true)
	if err != nil {
		t.Fatal(err)
	}
	qrng := rand.New(rand.NewSource(77))
	queryIDs := func(id int) []uint64 { return idStream(rand.New(rand.NewSource(int64(id))), id%6+1, 30+id%5*10) }
	for id := 1; id <= 8; id++ {
		if err := qs.Add(id, queryIDs(id)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for n := 0; n < engines; n++ {
		cfg := Config{
			K: 96, Seed: 21, Delta: 0.5, Lambda: 2, WindowFrames: 10,
			Order: Order(n % 2), Method: Method(n % 2), UseIndex: true,
		}
		e, err := NewEngineWith(cfg, qs)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(n int, e *Engine) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(int64(100 + n)))
			pushed := 0
			for pushed < frames {
				chunk := idStream(srng, n%6+1, 25)
				e.PushFrames(chunk)
				pushed += len(chunk)
			}
			e.Flush()
			if got := e.Stats().Frames; got < frames {
				t.Errorf("engine %d consumed %d frames, want >= %d", n, got, frames)
			}
		}(n, e)
	}

	// Churn goroutine: remove and re-add queries with fresh ids while the
	// engines run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := 9
		live := []int{1, 2, 3, 4, 5, 6, 7, 8}
		for i := 0; i < churns; i++ {
			j := qrng.Intn(len(live))
			if err := qs.Remove(live[j]); err != nil {
				t.Errorf("remove %d: %v", live[j], err)
			}
			id := next
			next++
			if err := qs.Add(id, queryIDs(id)); err != nil {
				t.Errorf("add %d: %v", id, err)
			}
			live[j] = id
		}
	}()
	wg.Wait()

	if n := qs.Len(); n != 8 {
		t.Errorf("query set ends with %d queries, want 8", n)
	}
}
