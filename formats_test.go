package vdsms

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/fleet"
)

// fixtureRun is the feed the older-format fixtures under testdata were
// written on: queries 1 and 2 under sweepConfig, and two segments that
// carry copies of them. It returns the matches a detector that subscribed
// the clips reports on each segment — the matches the writing run
// reported, three and five.
func fixtureRun(t *testing.T) (seg1, seg2 []byte, want1, want2 []Match) {
	t.Helper()
	q1, q2 := clip(t, 11, 20), clip(t, 12, 16)
	seg1 = composeSeg(t, clip(t, 110, 30), q1)
	seg2 = composeSeg(t, clip(t, 111, 30), q2, q1)
	ref, err := NewDetector(sweepConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ref, 1, q1)
	mustAdd(t, ref, 2, q2)
	want1, want2 = mustMonitor(t, ref, seg1), mustMonitor(t, ref, seg2)
	if len(want1) != 3 || len(want2) != 5 {
		t.Fatalf("reference run found %d and %d matches, the writing run 3 and 5", len(want1), len(want2))
	}
	return seg1, seg2, want1, want2
}

// TestLoadSketchSet: testdata/v1-queries.vqs, a VQS1 set (K raw sketch
// values a query) written by the format's own writer, loads and monitors
// to the writing run's matches. Its queries have no cells, so a checkpoint
// writes them as the query codec's sketch entries; the lineage resumes
// from it to the same matches, and its set saves and loads again.
func TestLoadSketchSet(t *testing.T) {
	seg1, seg2, want1, want2 := fixtureRun(t)
	cfg := sweepConfig(t.TempDir())
	d, err := LoadDetector(cfg, bytes.NewReader(readFile(t, filepath.Join("testdata", "v1-queries.vqs"))))
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMonitor(t, d, seg1); !reflect.DeepEqual(got, want1) {
		t.Errorf("loaded set's matches diverge:\nwant %+v\ngot  %+v", want1, got)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	r := mustResume(t, cfg, cfg.CheckpointDir)
	if got := mustMonitor(t, r, seg2); !reflect.DeepEqual(got, want2) {
		t.Errorf("resumed matches diverge:\nwant %+v\ngot  %+v", want2, got)
	}
	var saved bytes.Buffer
	if err := r.SaveQueries(&saved); err != nil {
		t.Fatal(err)
	}
	again, err := LoadDetector(sweepConfig(""), &saved)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumQueries() != 2 {
		t.Errorf("set saved again loads %d queries, want 2", again.NumQueries())
	}
}

// TestSavedSetRefusesOtherSeed: a saved set names the K and seed it was
// saved under, and a detector under another seed refuses it. It used to
// load: the detector matched through the file's hash family, its
// checkpoint recorded the configured seed, and the resumed plane, built
// under that seed from the file's sketches, matched nothing: on this feed,
// 3 matches before a checkpoint and resume and 0 after, without an error.
func TestSavedSetRefusesOtherSeed(t *testing.T) {
	q := clip(t, 11, 20)
	seg := composeSeg(t, clip(t, 110, 30), q)
	d, err := NewDetector(sweepConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, d, 1, q)
	var saved bytes.Buffer
	if err := d.SaveQueries(&saved); err != nil {
		t.Fatal(err)
	}
	other := sweepConfig(t.TempDir())
	other.Seed++
	l, err := LoadDetector(other, bytes.NewReader(saved.Bytes()))
	if err == nil {
		before := len(mustMonitor(t, l, seg))
		if err := l.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		after := len(mustMonitor(t, mustResume(t, other, other.CheckpointDir), seg))
		t.Fatalf("a set saved under seed %d loaded under seed %d: %d matches, %d after checkpoint and resume",
			d.cfg.Seed, other.Seed, before, after)
	}
	// Nor can an engine or a fleet under another seed share the plane.
	_, ecfg, err := newDetector(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewEngineWith(ecfg, d.engine.Queries()); err == nil {
		t.Error("an engine under another seed joined the plane")
	}
	if p, err := fleet.NewWith(fleet.Config{Engine: ecfg}, d.engine.Queries()); err == nil {
		p.Close()
		t.Error("a fleet under another seed joined the plane")
	}
}

// TestCheckpointHoldsCells: a checkpoint of a DefaultConfig detector
// (K = 800) holding a 532-query plane — fleet-rounds' and churn-durable's
// plane size — of 24 key frames a query stores each query's cells. When
// the plane held each query's K sketch values it took 3 408 669 bytes; it
// must now be at least 50 times smaller, and resume to the same plane.
func TestCheckpointHoldsCells(t *testing.T) {
	const sketchPlaneBytes = 3408669
	cfg := DefaultConfig()
	cfg.CheckpointDir = t.TempDir()
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(532))
	ids, cells := make([]int, 532), make([][]uint64, 532)
	for i := range ids {
		ids[i], cells[i] = 1000+i, make([]uint64, 24)
		for j := range cells[i] {
			cells[i][j] = uint64(rng.Intn(4096))
		}
	}
	if err := d.engine.AddQueries(ids, cells); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(cfg.CheckpointDir, CheckpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("532-query checkpoint: %d bytes (%.0f× below %d)", st.Size(), float64(sketchPlaneBytes)/float64(st.Size()), sketchPlaneBytes)
	if st.Size()*50 > sketchPlaneBytes {
		t.Errorf("532-query checkpoint takes %d bytes, want ≤ %d", st.Size(), sketchPlaneBytes/50)
	}
	d.Close()
	r := mustResume(t, cfg, cfg.CheckpointDir)
	if got, want := r.engine.Queries().PlaneBytes(), d.engine.Queries().PlaneBytes(); got != want || r.NumQueries() != 532 {
		t.Errorf("resumed plane: %d queries, %d bytes; want 532, %d", r.NumQueries(), got, want)
	}
}
