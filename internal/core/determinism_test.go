package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// detConfig is the engine configuration of the determinism workload.
func detConfig(v variant) Config {
	return Config{
		K: 192, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: v.order, Method: v.method, UseIndex: v.useIndex,
		PreFilter: v.prefilter,
	}
}

// detWorkload is a fixed multi-query workload: seven queries, and a stream
// of background with copies of several queries separated by more
// background, so windows relate to overlapping query subsets.
func detWorkload() (queries [][]uint64, stream []uint64) {
	rng := rand.New(rand.NewSource(42))
	queries = make([][]uint64, 7)
	for i := range queries {
		queries[i] = idStream(rng, i+1, 40+10*i)
	}
	stream = append(stream, idStream(rng, 50, 95)...)
	for _, qi := range []int{2, 0, 5, 3} {
		stream = append(stream, queries[qi]...)
		stream = append(stream, idStream(rng, 60+qi, 57)...)
	}
	return queries, stream
}

// detRun pushes the determinism workload through one engine configuration
// and returns its matches and stats.
func detRun(t *testing.T, v variant, batch bool) ([]Match, Stats) {
	t.Helper()
	e, err := NewEngine(detConfig(v))
	if err != nil {
		t.Fatal(err)
	}
	queries, stream := detWorkload()
	for i, ids := range queries {
		if err := e.AddQuery(i+1, ids); err != nil {
			t.Fatal(err)
		}
	}
	if batch {
		e.PushFrames(stream)
	} else {
		for _, id := range stream {
			e.PushFrame(id)
		}
	}
	e.Flush()
	return e.Matches, e.Stats()
}

// TestParallelMatchesSerial: engines monitoring the same stream in parallel
// goroutines over one shared QuerySet — the deployment the fleet pool runs
// on every core — must each reproduce a lone engine's match list exactly
// (same matches, same order) and its stats, for every variant.
func TestParallelMatchesSerial(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			wantM, wantS := detRun(t, v, false)
			if len(wantM) == 0 {
				t.Fatal("serial run found no matches; workload is too weak to test anything")
			}
			cfg := detConfig(v)
			qs, err := NewQuerySet(cfg.K, cfg.Seed, cfg.UseIndex)
			if err != nil {
				t.Fatal(err)
			}
			queries, stream := detWorkload()
			for i, ids := range queries {
				if err := qs.Add(i+1, ids); err != nil {
					t.Fatal(err)
				}
			}
			engines := make([]*Engine, 4)
			for i := range engines {
				if engines[i], err = NewEngineWith(cfg, qs); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for _, e := range engines {
				wg.Add(1)
				go func(e *Engine) {
					defer wg.Done()
					for i := 0; i < len(stream); i += 13 {
						e.PushFrames(stream[i:min(i+13, len(stream))])
					}
					e.Flush()
				}(e)
			}
			wg.Wait()
			for i, e := range engines {
				if !reflect.DeepEqual(e.Matches, wantM) {
					t.Errorf("engine %d: matches diverge from serial\nserial:   %+v\nparallel: %+v", i, wantM, e.Matches)
				}
				if got := e.Stats(); got != wantS {
					t.Errorf("engine %d: stats diverge from serial\nserial:   %+v\nparallel: %+v", i, wantS, got)
				}
			}
		})
	}
}

// TestPushFramesMatchesPushFrame: the batched entry point must be
// indistinguishable from per-frame pushing.
func TestPushFramesMatchesPushFrame(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			wantM, wantS := detRun(t, v, false)
			gotM, gotS := detRun(t, v, true)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("batched matches diverge from per-frame:\nper-frame: %+v\nbatched:   %+v", wantM, gotM)
			}
			if gotS != wantS {
				t.Errorf("batched stats diverge from per-frame:\nper-frame: %+v\nbatched:   %+v", wantS, gotS)
			}
		})
	}
}
