package core

import (
	"bytes"
	"runtime"
	"testing"

	"vdsms/internal/snapshot"
)

// withProcs runs f under GOMAXPROCS n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// planeBytes is what a plane writes: its saved set and the checkpoint of an
// engine on it.
func planeBytes(t *testing.T, e *Engine) (save, state []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Queries().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})
}

// TestAddBatchAnyCoreCount: under GOMAXPROCS 1, 2 and 4 the insertion-order
// history writes its golden bytes, and a batch of 300 queries — added,
// restored from its checkpoint and loaded from its saved set — writes the
// same saved set and checkpoint, with the same plane footprint.
func TestAddBatchAnyCoreCount(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for _, c := range orderCases {
				checkOrderGolden(t, c.name, orderConfig(c.method, c.noIndex))
			}
		})
	}

	cfg := orderConfig(Bit, false)
	ids, cells := benchQueries(300, 300)
	var wantSave, wantState []byte
	var wantBytes int
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddQueries(ids, cells); err != nil {
				t.Fatal(err)
			}
			save, state := planeBytes(t, e)
			if wantSave == nil {
				wantSave, wantState, wantBytes = save, state, e.Queries().PlaneBytes()
			}
			ck, err := snapshot.Read(bytes.NewReader(state))
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreEngine(cfg, &ck.Engine)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadQuerySet(cfg, bytes.NewReader(save))
			if err != nil {
				t.Fatal(err)
			}
			fromLoad, err := NewEngineWith(cfg, loaded)
			if err != nil {
				t.Fatal(err)
			}
			for name, x := range map[string]*Engine{"added": e, "restored": restored, "loaded": fromLoad} {
				save, state := planeBytes(t, x)
				if !bytes.Equal(save, wantSave) || !bytes.Equal(state, wantState) || x.Queries().PlaneBytes() != wantBytes {
					t.Errorf("GOMAXPROCS %d: the %s plane writes other bytes, or holds %d bytes against %d", procs, name, x.Queries().PlaneBytes(), wantBytes)
				}
			}
		})
	}
}

// TestExportStateAllocs: a checkpoint of the 2 068-query plane of
// monitor-manyquery (K = 800) copies no sketch — its queries are written as
// their cells — so it allocates a few bytes a query, not the 6.4 KB of a
// rebuilt sketch.
func TestExportStateAllocs(t *testing.T) {
	cfg := Config{K: 800, Seed: 1, Delta: 0.6, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, cells := benchQueries(2068, 2068)
	if err := e.AddQueries(ids, cells); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := e.ExportState()
	runtime.ReadMemStats(&after)
	if len(st.Queries) != 2068 {
		t.Fatalf("%d queries exported, want 2068", len(st.Queries))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("ExportState of 2 068 queries allocated %d bytes, want < 1 MB", alloc)
	}
}
