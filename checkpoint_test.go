package vdsms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vdsms/internal/snapshot"
)

// composeSeg builds one encoded stream segment from clips (all-intra, so
// key-frame counts are exact).
func composeSeg(t *testing.T, clips ...[]byte) []byte {
	t.Helper()
	rs := make([]io.Reader, len(clips))
	for i, c := range clips {
		rs[i] = bytes.NewReader(c)
	}
	var buf bytes.Buffer
	if err := ComposeStream(&buf, 80, 1, rs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepConfig is testConfig with a small K: the crash sweeps resume a
// lineage once per byte of log, and what they check — restored equals
// uninterrupted — holds at any K.
func sweepConfig(dir string) Config {
	cfg := testConfig()
	cfg.K = 64
	cfg.CheckpointDir = dir
	return cfg
}

// crashCopy copies a checkpoint directory as a crash would leave it, with
// the WAL cut to walBytes bytes (negative: whole), and returns the copy.
func crashCopy(t *testing.T, dir string, walBytes int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == WALFileName && walBytes >= 0 {
			data = data[:walBytes]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func mustResume(t *testing.T, cfg Config, dir string) *Detector {
	t.Helper()
	cfg.CheckpointDir = dir
	d, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Resume found no checkpoint")
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func mustAdd(t *testing.T, d *Detector, id int, clip []byte) {
	t.Helper()
	if err := d.AddQuery(id, bytes.NewReader(clip)); err != nil {
		t.Fatal(err)
	}
}

func mustRemove(t *testing.T, d *Detector, id int) {
	t.Helper()
	if err := d.RemoveQuery(id); err != nil {
		t.Fatal(err)
	}
}

func mustMonitor(t *testing.T, d *Detector, seg []byte) []Match {
	t.Helper()
	m, err := d.Monitor(bytes.NewReader(seg))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sortedIDs(d *Detector) []int {
	ids := d.QueryIDs()
	sort.Ints(ids)
	return ids
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResumeContinuesExactly is the facade-level recovery guarantee: a
// monitor that crashes after consuming a segment — with its state only in
// the checkpoint directory's WAL — resumes via WAL replay and finishes the
// stream with exactly the matches and stats of an uninterrupted run.
func TestResumeContinuesExactly(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()

	query := clip(t, 11, 20)
	// Segment lengths are multiples of the 5 s basic window so no partial
	// window is flushed at the segment boundary: the crash run's state then
	// lives purely in the WAL (the flush path would fold it into a
	// checkpoint and bypass replay).
	seg1 := composeSeg(t, clip(t, 110, 30), query) // copy at [30s, 50s)
	seg2 := composeSeg(t, clip(t, 111, 30))

	// Reference: uninterrupted run without checkpointing.
	refCfg := cfg
	refCfg.CheckpointDir = ""
	ref, err := NewDetector(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	refM1, err := ref.Monitor(bytes.NewReader(seg1))
	if err != nil {
		t.Fatal(err)
	}
	refM2, err := ref.Monitor(bytes.NewReader(seg2))
	if err != nil {
		t.Fatal(err)
	}
	if len(refM1) == 0 {
		t.Fatal("reference run found no matches; the test would prove nothing")
	}

	// Crash run: consume segment 1 with durability on, then abandon the
	// detector without any shutdown courtesy.
	det1, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det1.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	m1, err := det1.Monitor(bytes.NewReader(seg1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, refM1) {
		t.Fatalf("pre-crash matches diverge from reference:\nwant %+v\ngot  %+v", refM1, m1)
	}
	det1 = nil // crash

	// Recovery: the checkpoint holds frame 0 state (query subscription);
	// every segment-1 frame comes back through WAL replay.
	det2, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("Resume found no checkpoint")
	}
	if !reflect.DeepEqual(det2.Replayed, refM1) {
		t.Fatalf("replayed matches diverge from the crashed run:\nwant %+v\ngot  %+v", refM1, det2.Replayed)
	}
	m2, err := det2.Monitor(bytes.NewReader(seg2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2, refM2) {
		t.Fatalf("post-resume matches diverge from reference:\nwant %+v\ngot  %+v", refM2, m2)
	}
	if !reflect.DeepEqual(det2.Stats().Totals(), ref.Stats().Totals()) {
		t.Fatalf("post-resume stats totals diverge:\nwant %+v\ngot  %+v",
			ref.Stats().Totals(), det2.Stats().Totals())
	}
	if err := det2.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash windows of Checkpoint itself (as the periodic, the size-rule
	// and the explicit checkpoint all run it): temp file written, renamed
	// into place, directory synced, WAL truncated, WAL header written. The
	// lineage: a query, a segment, a second query at the checkpoint's frame.
	query2 := clip(t, 12, 20)
	seg3 := composeSeg(t, clip(t, 112, 10), query2)
	mustAdd(t, ref, 2, query2)
	refM3 := mustMonitor(t, ref, seg3)
	if len(refM3) == 0 {
		t.Fatal("reference run found no matches in the third segment; the test would prove nothing")
	}

	scfg := cfg
	scfg.CheckpointDir = t.TempDir()
	det3, err := NewDetector(scfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det3.Close()
	mustAdd(t, det3, 1, query)
	mustMonitor(t, det3, seg1)
	mustMonitor(t, det3, seg2)
	mustAdd(t, det3, 2, query2)
	walPath := filepath.Join(scfg.CheckpointDir, WALFileName)
	oldWAL := readFile(t, walPath)
	if l, err := snapshot.ReplayWAL(walPath); err != nil || len(l.Frames) == 0 || len(l.Plane) == 0 {
		t.Fatalf("the log to be orphaned holds %+v (%v); want frames and subscription changes", l, err)
	}
	before := crashCopy(t, scfg.CheckpointDir, -1)
	if err := det3.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashes := map[string]string{"after rotation": crashCopy(t, scfg.CheckpointDir, -1)}
	// Temp file half-written: the old pair plus litter.
	if err := os.WriteFile(filepath.Join(before, ".snapshot-123"), []byte("VCKP torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	crashes["before rename"] = before
	// Renamed, not rotated: the new checkpoint beside the old log, whose
	// every record — frames and the subscription at the checkpoint's own
	// frame — it already holds. Position cannot tell; identity does.
	crashes["between rename and rotate"] = crashCopy(t, scfg.CheckpointDir, -1)
	if err := os.WriteFile(filepath.Join(crashes["between rename and rotate"], WALFileName), oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	// Rotating: the new log truncated, its header absent or torn.
	for _, n := range []int64{0, 10, 25} {
		crashes[fmt.Sprintf("header cut at %d", n)] = crashCopy(t, scfg.CheckpointDir, n)
	}
	for name, dir := range crashes {
		d := mustResume(t, scfg, dir)
		if ids := sortedIDs(d); !reflect.DeepEqual(ids, []int{1, 2}) {
			t.Errorf("%s: resumed query set %v, want [1 2]", name, ids)
		}
		if name != "before rename" && len(d.Replayed) != 0 {
			t.Errorf("%s: replayed %d matches the checkpoint already holds", name, len(d.Replayed))
		}
		if m := mustMonitor(t, d, seg3); !reflect.DeepEqual(m, refM3) {
			t.Errorf("%s: post-resume matches diverge from reference:\nwant %+v\ngot  %+v", name, refM3, m)
		}
	}

	// The same window on a detector that never monitors (vcdserve's root):
	// every record sits at frame 0, as does the checkpoint.
	rcfg := cfg
	rcfg.CheckpointDir = t.TempDir()
	root, err := NewDetector(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	mustAdd(t, root, 1, query)
	mustAdd(t, root, 2, query2)
	mustAdd(t, root, 3, clip(t, 13, 20))
	mustRemove(t, root, 1)
	walPath = filepath.Join(rcfg.CheckpointDir, WALFileName)
	oldWAL = readFile(t, walPath)
	if l, err := snapshot.ReplayWAL(walPath); err != nil || len(l.Plane) == 0 {
		t.Fatalf("the log to be orphaned holds %+v (%v); want subscription changes", l, err)
	}
	if err := root.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, oldWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	if ids := sortedIDs(mustResume(t, rcfg, crashCopy(t, rcfg.CheckpointDir, -1))); !reflect.DeepEqual(ids, []int{2, 3}) {
		t.Errorf("frameless lineage resumed with %v, want [2 3]", ids)
	}
}

// TestResumeV1Lineage: a checkpoint directory written before the log
// carried subscription changes (testdata/v1-lineage: this file's first
// lineage at K=64, crashed after seg1 by the code of that time — a
// checkpoint at frame 0 and a version 1 WAL of 100 frames) still restores,
// by frame position.
func TestResumeV1Lineage(t *testing.T) {
	cfg := sweepConfig("")
	query := clip(t, 11, 20)
	seg1 := composeSeg(t, clip(t, 110, 30), query)
	seg2 := composeSeg(t, clip(t, 111, 30), query)
	ref, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ref, 1, query)
	refM1, refM2 := mustMonitor(t, ref, seg1), mustMonitor(t, ref, seg2)
	if len(refM1) == 0 || len(refM2) == 0 {
		t.Fatal("reference run found no matches; the test would prove nothing")
	}

	dir := crashCopy(t, filepath.Join("testdata", "v1-lineage"), -1)
	v1WAL := readFile(t, filepath.Join(dir, WALFileName))
	if l, err := snapshot.ReplayWAL(filepath.Join(dir, WALFileName)); err != nil || l.Version != 1 || len(l.Frames) != 100 {
		t.Fatalf("fixture WAL: %+v, %v", l, err)
	}
	d := mustResume(t, cfg, dir)
	if !reflect.DeepEqual(d.Replayed, refM1) {
		t.Errorf("replayed matches diverge:\nwant %+v\ngot  %+v", refM1, d.Replayed)
	}
	// Resume left a checkpoint at frame 100. Beside the version 1 log of
	// frames 0–99 — the rename/rotate crash of that time — nothing replays.
	d.Close()
	if err := os.WriteFile(filepath.Join(dir, WALFileName), v1WAL, 0o644); err != nil {
		t.Fatal(err)
	}
	d = mustResume(t, cfg, dir)
	if len(d.Replayed) != 0 {
		t.Errorf("replayed %d matches from a log the checkpoint covers", len(d.Replayed))
	}
	if m := mustMonitor(t, d, seg2); !reflect.DeepEqual(m, refM2) {
		t.Errorf("post-resume matches diverge:\nwant %+v\ngot  %+v", refM2, m)
	}
	// A version 1 log that starts past the checkpoint has lost frames.
	d.Close()
	w, err := snapshot.CreateWAL(filepath.Join(dir, WALFileName), d.fingerprint(), 500)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]uint64{1})
	w.Close()
	cfg.CheckpointDir = dir
	if _, _, err := Resume(cfg); err == nil || !strings.Contains(err.Error(), "frames lost") {
		t.Errorf("gap between checkpoint and log: err = %v", err)
	}
}

// TestResumeAcrossWorkerCounts: a checkpoint taken at one worker count
// restores at another — parallelism is a runtime choice, not state.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.Workers = 4

	query := clip(t, 21, 20)
	seg1 := composeSeg(t, clip(t, 210, 30), query)
	seg2 := composeSeg(t, clip(t, 211, 30))

	refCfg := cfg
	refCfg.CheckpointDir = ""
	refCfg.Workers = 0
	ref, err := NewDetector(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	refM1, _ := ref.Monitor(bytes.NewReader(seg1))
	refM2, _ := ref.Monitor(bytes.NewReader(seg2))

	det1, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det1.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	if _, err := det1.Monitor(bytes.NewReader(seg1)); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.Workers = 0
	det2, _, err := Resume(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(det2.Replayed, refM1) {
		t.Fatalf("replayed matches diverge across worker counts:\nwant %+v\ngot  %+v", refM1, det2.Replayed)
	}
	m2, err := det2.Monitor(bytes.NewReader(seg2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2, refM2) {
		t.Fatalf("post-resume matches diverge across worker counts:\nwant %+v\ngot  %+v", refM2, m2)
	}
}

// TestResumeRejectsConfigDrift pins the loud-failure contract at the
// facade: a drifted detection parameter or pipeline parameter refuses to
// resume, naming the field.
func TestResumeRejectsConfigDrift(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 31, 20))); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Delta = 0.9
	if _, _, err := Resume(bad); err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Errorf("Delta drift: err = %v, want mention of Delta", err)
	}
	bad = cfg
	bad.U = 8
	if _, _, err := Resume(bad); err == nil || !strings.Contains(err.Error(), "U") {
		t.Errorf("U drift: err = %v, want mention of U", err)
	}
	// The unchanged configuration resumes.
	if _, found, err := Resume(cfg); err != nil || !found {
		t.Errorf("clean resume failed: found=%v err=%v", found, err)
	}
}

// TestResumeFreshDirectory: Resume on an empty directory is a clean start
// that arms checkpointing.
func TestResumeFreshDirectory(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	d, found, err := Resume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("Resume reported a checkpoint in an empty directory")
	}
	if len(d.Replayed) != 0 {
		t.Errorf("fresh resume replayed %d matches", len(d.Replayed))
	}
	if _, err := os.Stat(filepath.Join(cfg.CheckpointDir, CheckpointFileName)); err != nil {
		t.Errorf("fresh resume left no checkpoint: %v", err)
	}
	if _, found, err = Resume(cfg); err != nil || !found {
		t.Errorf("second resume: found=%v err=%v", found, err)
	}
}

// TestQueryChurnIsDurable: AddQuery/RemoveQuery are logged and synced
// before they take effect — one WAL record each, no checkpoint — so a crash
// at any byte of the log resumes with the query set of the uninterrupted
// run at that point, and finishes the stream with its matches.
func TestQueryChurnIsDurable(t *testing.T) {
	cfg := sweepConfig(t.TempDir())
	q1, q2, q3 := clip(t, 41, 20), clip(t, 42, 20), clip(t, 43, 20)
	seg1 := composeSeg(t, clip(t, 140, 30), q1)
	seg2 := composeSeg(t, q3, clip(t, 141, 10), q2) // the query that arrives, the one that stays

	// Reference: the uninterrupted run, without checkpointing.
	ref, err := NewDetector(sweepConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	mustAdd(t, ref, 1, q1)
	mustAdd(t, ref, 2, q2)
	mustMonitor(t, ref, seg1)
	mustRemove(t, ref, 1)
	mustAdd(t, ref, 3, q3)
	refM2 := mustMonitor(t, ref, seg2)
	if len(refM2) == 0 {
		t.Fatal("reference run found no matches; the test would prove nothing")
	}
	// The operation counters tell when each query was subscribed: they
	// catch a change replayed at the wrong frame even if no match moves.
	refTotals := ref.Stats().Totals()

	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	mustAdd(t, det, 1, q1)
	mustAdd(t, det, 2, q2)
	mustMonitor(t, det, seg1)
	ckptPath := filepath.Join(cfg.CheckpointDir, CheckpointFileName)
	ckpt := readFile(t, ckptPath)
	s0 := det.wal.Size()
	mustRemove(t, det, 1)
	s1 := det.wal.Size()
	mustAdd(t, det, 3, q3)
	s2 := det.wal.Size()
	if !bytes.Equal(ckpt, readFile(t, ckptPath)) {
		t.Error("a subscription change rewrote the checkpoint")
	}
	if s1 <= s0 || s2 <= s1 || s2-s0 > 512 {
		t.Errorf("log sizes %d → %d → %d: want one small record per change", s0, s1, s2)
	}

	// Crash after every byte of the remove + add pair: record torn before
	// its fsync, whole but not yet applied, between the two calls.
	for cut := s0; cut <= s2; cut++ {
		d := mustResume(t, cfg, crashCopy(t, cfg.CheckpointDir, cut))
		want := []int{2, 3}
		switch {
		case cut < s1:
			want = []int{1, 2}
		case cut < s2:
			want = []int{2}
		}
		if ids := sortedIDs(d); !reflect.DeepEqual(ids, want) {
			t.Fatalf("log cut at %d of [%d %d %d]: resumed query set %v, want %v", cut, s0, s1, s2, ids, want)
		}
		// A call that never returned is made again by its caller.
		if cut < s1 {
			mustRemove(t, d, 1)
		}
		if cut < s2 {
			mustAdd(t, d, 3, q3)
		}
		if m := mustMonitor(t, d, seg2); !reflect.DeepEqual(m, refM2) {
			t.Fatalf("log cut at %d: post-resume matches diverge from reference:\nwant %+v\ngot  %+v", cut, refM2, m)
		}
		if got := d.Stats().Totals(); !reflect.DeepEqual(got, refTotals) {
			t.Fatalf("log cut at %d: post-resume stats totals diverge:\nwant %+v\ngot  %+v", cut, refTotals, got)
		}
		d.Close()
	}

	// Churn with a window half filled: the changes replay between the same
	// two frames they were made between.
	cells1, err := det.pipeline.queryCells(0, bytes.NewReader(seg1))
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := det.pipeline.queryCells(0, bytes.NewReader(seg2))
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *Detector, crash func(*Detector) *Detector) ([]Match, any) {
		mustAdd(t, d, 1, q1)
		mustAdd(t, d, 2, q2)
		for _, step := range []func() error{
			func() error { return d.pushLogged(cells1[:53]) },
			func() error { return d.RemoveQuery(1) },
			func() error { return d.AddQuery(3, bytes.NewReader(q3)) },
			func() error { return d.pushLogged(cells1[53:75]) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if d.engine.PendingFrames() != 5 {
			t.Fatalf("PendingFrames() = %d before the crash, want 5", d.engine.PendingFrames())
		}
		d = crash(d)
		n := len(d.engine.Matches)
		if err := d.pushLogged(append(cells1[75:len(cells1):len(cells1)], cells2...)); err != nil {
			t.Fatal(err)
		}
		var later []Match
		for _, m := range d.engine.Matches[n:] {
			later = append(later, d.convert(m))
		}
		return later, d.Stats().Totals()
	}
	ref, err = NewDetector(sweepConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	want, wantTotals := run(ref, func(d *Detector) *Detector { return d })
	if len(want) == 0 {
		t.Fatal("reference run found no matches; the test would prove nothing")
	}
	mcfg := sweepConfig(t.TempDir())
	mid, err := NewDetector(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotTotals := run(mid, func(d *Detector) *Detector {
		r := mustResume(t, mcfg, crashCopy(t, mcfg.CheckpointDir, -1))
		d.Close()
		if ids := sortedIDs(r); !reflect.DeepEqual(ids, []int{2, 3}) || r.engine.PendingFrames() != 5 {
			t.Fatalf("mid-window resume: queries %v, %d pending frames; want [2 3], 5", ids, r.engine.PendingFrames())
		}
		return r
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mid-window churn: post-resume matches diverge from reference:\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(gotTotals, wantTotals) {
		t.Errorf("mid-window churn: post-resume stats totals diverge:\nwant %+v\ngot  %+v", wantTotals, gotTotals)
	}
}

// TestQueryChurnFailureLeavesNoTrace: validate → log → apply. A change the
// plane would refuse is never logged; a change the log cannot take never
// reaches the plane, and the detector recovers by starting a fresh lineage.
func TestQueryChurnFailureLeavesNoTrace(t *testing.T) {
	cfg := sweepConfig(t.TempDir())
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	q1, q2 := clip(t, 51, 20), clip(t, 52, 20)
	mustAdd(t, det, 1, q1)

	size := det.wal.Size()
	if err := det.AddQuery(1, bytes.NewReader(q2)); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := det.RemoveQuery(9); err == nil {
		t.Error("unknown id removed")
	}
	if err := det.AddQuery(2, bytes.NewReader(nil)); err == nil {
		t.Error("empty clip accepted")
	}
	if err := det.AddQueries([]int{2, 2}, []io.Reader{bytes.NewReader(q2), bytes.NewReader(q2)}); err == nil {
		t.Error("batch with a repeated id accepted")
	}
	if det.wal.Size() != size {
		t.Errorf("refused changes grew the log from %d to %d bytes", size, det.wal.Size())
	}

	// The log's file goes away under the detector.
	det.wal.Close()
	if err := det.AddQuery(2, bytes.NewReader(q2)); err == nil {
		t.Fatal("AddQuery succeeded without a log to write to")
	}
	if err := det.RemoveQuery(1); err != nil {
		// The first failure dropped the log; this call starts a new lineage.
		t.Fatalf("RemoveQuery after a log failure: %v", err)
	}
	mustAdd(t, det, 1, q1)
	if ids := sortedIDs(det); !reflect.DeepEqual(ids, []int{1}) {
		t.Errorf("query set %v after a failed add, want [1]", ids)
	}
	if ids := sortedIDs(mustResume(t, cfg, crashCopy(t, cfg.CheckpointDir, -1))); !reflect.DeepEqual(ids, []int{1}) {
		t.Errorf("resumed query set %v, want [1]", ids)
	}

	// And the failure itself, seen from disk: in memory and resumed alike,
	// the state before the call.
	det.wal.Close()
	if err := det.RemoveQuery(1); err == nil {
		t.Fatal("RemoveQuery succeeded without a log to write to")
	}
	if ids := sortedIDs(det); !reflect.DeepEqual(ids, []int{1}) {
		t.Errorf("query set %v after a failed remove, want [1]", ids)
	}
	if ids := sortedIDs(mustResume(t, cfg, crashCopy(t, cfg.CheckpointDir, -1))); !reflect.DeepEqual(ids, []int{1}) {
		t.Errorf("resumed query set %v after a failed remove, want [1]", ids)
	}
}

// TestCheckpointCompactionRule: with no periodic checkpoints, a checkpoint
// is taken exactly when, at a window boundary, the log has outgrown the
// checkpoint it extends — never mid-window, never sooner, never later.
func TestCheckpointCompactionRule(t *testing.T) {
	cfg := sweepConfig(t.TempDir())
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer det.Close()
	mustAdd(t, det, 1, clip(t, 61, 20))
	cells, err := det.pipeline.queryCells(0, bytes.NewReader(clip(t, 160, 60)))
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(cfg.CheckpointDir, CheckpointFileName)
	compactions := snapshot.Compactions.Value()
	fired := 0
	for loop := 0; loop < 12; loop++ {
		for off := 0; off+4 <= len(cells); off += 4 { // 4-frame batches against 10-frame windows
			batch := cells[off : off+4]
			grown := det.wal.Size()
			for _, c := range batch {
				grown += int64(1 + len(binary.AppendUvarint(nil, c)))
			}
			ckptBytes := det.ckptBytes
			if st, err := os.Stat(ckptPath); err != nil || st.Size() != ckptBytes {
				t.Fatalf("checkpoint file: %v, %v; detector believes %d bytes", st, err, ckptBytes)
			}
			if err := det.pushLogged(batch); err != nil {
				t.Fatal(err)
			}
			want := det.engine.PendingFrames() == 0 && grown > ckptBytes
			got := det.wal.Size() < grown
			if got != want {
				t.Fatalf("log of %d bytes over a checkpoint of %d, %d frames pending: checkpointed = %v",
					grown, ckptBytes, det.engine.PendingFrames(), got)
			}
			if got {
				fired++
			}
		}
	}
	if fired < 2 {
		t.Fatalf("the rule fired %d times; the test needs a longer log to prove anything", fired)
	}
	if n := snapshot.Compactions.Value() - compactions; n != int64(fired) {
		t.Errorf("vcd_checkpoint_compactions_total moved by %d over %d compactions", n, fired)
	}
}
