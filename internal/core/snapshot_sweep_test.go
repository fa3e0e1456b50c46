package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"vdsms/internal/snapshot"
)

// sweepScript builds a deterministic workload for one engine variant, small
// enough that the sweep below can checkpoint at every window boundary.
func sweepScript(seed int64, order Order, method Method, useIndex bool) *fuzzScript {
	rng := rand.New(rand.NewSource(seed))
	fs := &fuzzScript{
		cfg: Config{
			K:            64,
			Seed:         rng.Int63(),
			Delta:        0.4,
			Lambda:       2,
			WindowFrames: 7,
			Order:        order,
			Method:       method,
			UseIndex:     useIndex,
		},
		removeAt: map[int]int{},
	}
	nq := 4
	for q := 1; q <= nq; q++ {
		fs.queries = append(fs.queries, idStream(rng, rng.Intn(4), rng.Intn(40)+10))
	}
	frames := 200
	for i := 0; i < frames; i++ {
		fs.frames = append(fs.frames, uint64(rng.Intn(4))*100000+uint64(rng.Intn(30)))
	}
	// Splice true copies of query material into the stream so the sweep
	// crosses real candidate growth and match reports, not just empty state.
	for q, at := range []int{15, 60, 120, 160} {
		copy(fs.frames[at:], fs.queries[q%nq])
	}
	// One mid-stream removal so the sweep crosses subscription churn.
	fs.removeAt[frames/2] = 2
	return fs
}

// TestRestoreRejectsIncompatibleConfig pins the loud-failure contract: a
// checkpoint restored under a drifted configuration is refused with an
// error naming the mismatched fields.
func TestRestoreRejectsIncompatibleConfig(t *testing.T) {
	fs := sweepScript(1, Sequential, Bit, true)
	e, err := NewEngine(fs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ids := range fs.queries {
		if err := e.AddQuery(i+1, ids); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range fs.frames[:50] {
		e.PushFrame(id)
	}
	st := e.ExportState()

	bad := fs.cfg
	bad.Delta = 0.9
	if _, err := RestoreEngine(bad, st); err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Errorf("Delta drift: err = %v, want mention of Delta", err)
	}
	bad = fs.cfg
	bad.Seed++
	if _, err := RestoreEngine(bad, st); err == nil || !strings.Contains(err.Error(), "Seed") {
		t.Errorf("Seed drift: err = %v, want mention of Seed", err)
	}
}

// TestExportStateCanonical pins the canonical form that makes checkpoint
// bytes a function of the logical state: exporting the same engine twice,
// and exporting an engine restored from that export, serialise to
// identical bytes whatever order Go's maps iterate in.
func TestExportStateCanonical(t *testing.T) {
	marshal := func(e *Engine) []byte {
		return snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})
	}
	for _, order := range []Order{Sequential, Geometric} {
		fs := sweepScript(2, order, Bit, false)
		for _, frames := range []int{49, 140, 200} {
			e, err := NewEngine(fs.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, ids := range fs.queries {
				if err := e.AddQuery(i+1, ids); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range fs.frames[:frames] {
				e.PushFrame(id)
			}
			want := marshal(e)
			if !bytes.Equal(marshal(e), want) {
				t.Errorf("%s frames=%d: two exports of one engine differ", order, frames)
			}
			r, err := RestoreEngine(fs.cfg, e.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshal(r), want) {
				t.Errorf("%s frames=%d: the restored engine exports different bytes", order, frames)
			}
		}
	}
}

// TestRestoreSumsWorkCounters: a checkpoint written by a kernel that kept
// one work-counter entry per query shard restores with each counter equal
// to the sum of its entries.
func TestRestoreSumsWorkCounters(t *testing.T) {
	fs := sweepScript(3, Sequential, Bit, true)
	e, err := NewEngine(fs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := e.ExportState()
	st.Stats.Shards = []snapshot.ShardStats{
		{Probed: 5, Pruned: 2, Compared: 11},
		{Probed: 7, Pruned: 1, Compared: 13},
	}
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, &snapshot.Checkpoint{Engine: *st}); err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreEngine(fs.cfg, &dec.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got.Probed != 12 || got.Pruned != 3 || got.Compared != 24 {
		t.Errorf("restored Probed/Pruned/Compared = %d/%d/%d, want 12/3/24", got.Probed, got.Pruned, got.Compared)
	}
	if got := r.ExportState().Stats.Shards; len(got) != 1 || got[0] != (snapshot.ShardStats{Probed: 12, Pruned: 3, Compared: 24}) {
		t.Errorf("re-export writes work counters %+v, want one summed entry", got)
	}
}
