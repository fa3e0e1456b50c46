package core

import (
	"math/rand"
	"testing"
)

// fuzzScript is one randomly generated engine workload, fully materialised
// so it can be replayed identically.
type fuzzScript struct {
	cfg      Config
	queries  [][]uint64 // queries[i] is query id i+1
	frames   []uint64
	removeAt map[int]int // frame index → query id to remove after that frame
}

// replay runs the script on a fresh engine and returns the resulting
// matches and stats.
func (fs *fuzzScript) replay(t *testing.T) ([]Match, Stats) {
	t.Helper()
	cfg := fs.cfg
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("%v (%+v)", err, cfg)
	}
	for i, ids := range fs.queries {
		if err := e.AddQuery(i+1, ids); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
	}
	for i, id := range fs.frames {
		e.PushFrame(id)
		if victim, ok := fs.removeAt[i]; ok {
			if err := e.RemoveQuery(victim); err != nil {
				t.Fatalf("remove %d: %v", victim, err)
			}
		}
	}
	e.Flush()
	return e.Matches, e.Stats()
}

// TestEngineFuzzInvariants drives randomly configured engines with random
// query/stream material and checks structural invariants — no panics,
// match fields well-formed, similarities at or above δ, stats consistent.
func TestEngineFuzzInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20080407))
	for trial := 0; trial < 60; trial++ {
		fs := &fuzzScript{
			cfg: Config{
				K:            []int{16, 64, 200, 801}[rng.Intn(4)],
				Seed:         rng.Int63(),
				Delta:        0.3 + 0.6*rng.Float64(),
				Lambda:       1 + rng.Float64(),
				WindowFrames: rng.Intn(20) + 1,
				Order:        Order(rng.Intn(2)),
				Method:       Method(rng.Intn(2)),
				UseIndex:     rng.Intn(2) == 0,
				DisablePrune: rng.Intn(4) == 0,
			},
			removeAt: map[int]int{},
		}
		nq := rng.Intn(6) + 1
		for q := 1; q <= nq; q++ {
			fs.queries = append(fs.queries, idStream(rng, rng.Intn(8), rng.Intn(80)+5))
		}
		// Random stream with occasional query-content bursts and mid-stream
		// subscription churn at fixed frame positions.
		frames := rng.Intn(800) + 100
		removed := map[int]bool{}
		for i := 0; i < frames; i++ {
			fs.frames = append(fs.frames, uint64(rng.Intn(8))*100000+uint64(rng.Intn(50)))
			if rng.Intn(200) == 0 {
				victim := rng.Intn(nq) + 1
				if !removed[victim] {
					fs.removeAt[i] = victim
					removed[victim] = true
				}
			}
		}

		matches, st := fs.replay(t)
		cfg := fs.cfg
		if st.Frames != frames {
			t.Fatalf("trial %d: Frames=%d, pushed %d", trial, st.Frames, frames)
		}
		wantWindows := (frames + cfg.WindowFrames - 1) / cfg.WindowFrames
		if st.Windows != wantWindows {
			t.Fatalf("trial %d: Windows=%d, want %d", trial, st.Windows, wantWindows)
		}
		if st.Matches != len(matches) {
			t.Fatalf("trial %d: stats Matches=%d, slice %d", trial, st.Matches, len(matches))
		}
		for _, m := range matches {
			if m.QueryID < 1 || m.QueryID > nq {
				t.Fatalf("trial %d: match for unknown query %d", trial, m.QueryID)
			}
			if m.StartFrame < 0 || m.EndFrame <= m.StartFrame || m.EndFrame > frames {
				t.Fatalf("trial %d: malformed match span [%d,%d) of %d frames",
					trial, m.StartFrame, m.EndFrame, frames)
			}
			if m.Similarity < cfg.Delta-1e-9 {
				t.Fatalf("trial %d: match similarity %g below δ=%g", trial, m.Similarity, cfg.Delta)
			}
			if m.Windows < 1 {
				t.Fatalf("trial %d: match with %d windows", trial, m.Windows)
			}
		}
		if st.Compared != st.SigTests+st.SketchCompares {
			t.Fatalf("trial %d: Compared=%d, but %d signature tests + %d sketch comparisons",
				trial, st.Compared, st.SigTests, st.SketchCompares)
		}
	}
}
