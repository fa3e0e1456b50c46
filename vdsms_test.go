package vdsms

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// clip synthesises an encoded clip with the test defaults: 96×80, 2 fps
// all-intra, so every frame is a key frame and KeyFPS=2 configs apply.
func clip(t testing.TB, seed int64, seconds float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Synthesize(&buf, VideoOptions{
		Seconds: seconds, FPS: 2, W: 96, H: 80, Seed: seed, Quality: 80, GOP: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 400
	cfg.Delta = 0.6
	return cfg
}

func TestDefaultConfigIsPaperTable1(t *testing.T) {
	c := DefaultConfig()
	if c.K != 800 || c.Delta != 0.7 || c.U != 4 || c.D != 5 || c.WindowSec != 5 || c.Lambda != 2 {
		t.Errorf("DefaultConfig = %+v does not match Table I", c)
	}
}

func TestNewDetectorValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.WindowSec = 0
	if _, err := NewDetector(bad); err == nil {
		t.Error("WindowSec=0 accepted")
	}
	bad = DefaultConfig()
	bad.KeyFPS = 0
	if _, err := NewDetector(bad); err == nil {
		t.Error("KeyFPS=0 accepted")
	}
	bad = DefaultConfig()
	bad.Delta = 2
	if _, err := NewDetector(bad); err == nil {
		t.Error("Delta=2 accepted")
	}
	bad = DefaultConfig()
	bad.U = 0
	if _, err := NewDetector(bad); err == nil {
		t.Error("U=0 accepted")
	}
}

func TestDetectorEndToEnd(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	query := clip(t, 1, 20)
	if err := det.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	if det.NumQueries() != 1 {
		t.Fatalf("NumQueries = %d", det.NumQueries())
	}

	// Stream: background, the query clip verbatim, background.
	var stream bytes.Buffer
	err = ComposeStream(&stream, 80, 1,
		bytes.NewReader(clip(t, 100, 30)),
		bytes.NewReader(query),
		bytes.NewReader(clip(t, 101, 30)),
	)
	if err != nil {
		t.Fatal(err)
	}

	var live []Match
	det.OnMatch = func(m Match) { live = append(live, m) }
	matches, err := det.Monitor(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("embedded copy not detected")
	}
	if len(live) != len(matches) {
		t.Errorf("OnMatch delivered %d, Monitor returned %d", len(live), len(matches))
	}
	// Copy occupies stream time [30s, 50s).
	found := false
	for _, m := range matches {
		if m.QueryID != 1 {
			t.Errorf("unexpected query %d", m.QueryID)
		}
		if m.Similarity < 0.6 {
			t.Errorf("similarity %g below δ", m.Similarity)
		}
		if m.DetectedAt >= 30*time.Second && m.DetectedAt <= 60*time.Second {
			found = true
		}
	}
	if !found {
		t.Errorf("no detection near the copy: %+v", matches)
	}
}

func TestDetectorEditedCopy(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	query := clip(t, 2, 24)
	if err := det.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	// Manufacture an edited, temporally reordered copy.
	var edited bytes.Buffer
	err = ApplyEdits(&edited, bytes.NewReader(query), EditOptions{
		Brightness:    18,
		Contrast:      1.1,
		NoiseAmp:      4,
		ReorderSegSec: 6,
		Seed:          7,
		Quality:       75,
		GOP:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	err = ComposeStream(&stream, 75, 1,
		bytes.NewReader(clip(t, 200, 30)),
		bytes.NewReader(edited.Bytes()),
		bytes.NewReader(clip(t, 201, 30)),
	)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := det.Monitor(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Error("edited, reordered copy not detected")
	}
}

func TestDetectorNoFalsePositives(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 3, 20))); err != nil {
		t.Fatal(err)
	}
	matches, err := det.Monitor(bytes.NewReader(clip(t, 300, 90)))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("false positives on unrelated stream: %+v", matches)
	}
	if det.Stats().Windows == 0 {
		t.Error("no windows processed")
	}
}

func TestMonitorContinuesAcrossCalls(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	query := clip(t, 4, 20)
	if err := det.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	// Segment 1: background only. Segment 2: the copy.
	m1, err := det.Monitor(bytes.NewReader(clip(t, 400, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != 0 {
		t.Fatalf("segment 1 produced matches: %+v", m1)
	}
	m2, err := det.Monitor(bytes.NewReader(query))
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) == 0 {
		t.Fatal("copy in second segment not detected")
	}
	// Positions continue across segments: detection after the 20 s mark.
	if m2[0].DetectedAt < 20*time.Second {
		t.Errorf("DetectedAt %v not offset by first segment", m2[0].DetectedAt)
	}
}

func TestMonitorRejectsIncompatibleKeyRate(t *testing.T) {
	det, err := NewDetector(testConfig()) // expects 2 key frames/s
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// 30 fps with GOP 1 → 30 key frames/s.
	if err := Synthesize(&buf, VideoOptions{Seconds: 2, FPS: 30, W: 96, H: 80, GOP: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Monitor(&buf); err == nil {
		t.Error("incompatible key-frame rate accepted")
	}
}

func TestRemoveQuery(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := clip(t, 5, 16)
	if err := det.AddQuery(1, bytes.NewReader(q)); err != nil {
		t.Fatal(err)
	}
	if err := det.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	if err := det.RemoveQuery(1); err == nil {
		t.Error("double remove succeeded")
	}
	matches, err := det.Monitor(bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Error("removed query still matched")
	}
}

func TestAddQueryErrors(t *testing.T) {
	det, _ := NewDetector(testConfig())
	if err := det.AddQuery(1, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk query accepted")
	}
}

// TestPreFilterFacade pins the facade contract of batch subscription:
// AddQueries, with the ignored Config.PreFilter set, must reproduce the
// incremental detector's matches exactly. It is the one test that sets
// PreFilter: the benchmark still does, so such a Config must validate and
// run.
func TestPreFilterFacade(t *testing.T) {
	q1, q2 := clip(t, 21, 16), clip(t, 22, 16)
	var stream bytes.Buffer
	err := ComposeStream(&stream, 70, 1,
		bytes.NewReader(clip(t, 120, 20)),
		bytes.NewReader(q1),
		bytes.NewReader(clip(t, 121, 20)),
	)
	if err != nil {
		t.Fatal(err)
	}

	base, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddQuery(1, bytes.NewReader(q1)); err != nil {
		t.Fatal(err)
	}
	if err := base.AddQuery(2, bytes.NewReader(q2)); err != nil {
		t.Fatal(err)
	}
	want, err := base.Monitor(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline found no matches; equality check is vacuous")
	}

	cfg := testConfig()
	cfg.PreFilter = true
	pre, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.AddQueries([]int{1, 2}, []io.Reader{bytes.NewReader(q1), bytes.NewReader(q2)}); err != nil {
		t.Fatal(err)
	}
	if pre.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d after batch add", pre.NumQueries())
	}
	got, err := pre.Monitor(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch run found %d matches, baseline %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}

	ignored := testConfig()
	ignored.PreFilter = true
	ignored.NoIndex = true
	if _, err := NewDetector(ignored); err != nil {
		t.Errorf("PreFilter+NoIndex rejected: %v", err)
	}
	det, _ := NewDetector(testConfig())
	if err := det.AddQueries([]int{1}, nil); err == nil {
		t.Error("mismatched ids/clips accepted")
	}
	if err := det.AddQueries([]int{3}, []io.Reader{bytes.NewReader([]byte("junk"))}); err == nil {
		t.Error("junk batch clip accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := clip(t, 9, 5)
	b := clip(t, 9, 5)
	if !bytes.Equal(a, b) {
		t.Error("Synthesize not deterministic")
	}
}

func TestApplyEditsChangesBytesKeepsFormat(t *testing.T) {
	src := clip(t, 10, 10)
	var dst bytes.Buffer
	if err := ApplyEdits(&dst, bytes.NewReader(src), EditOptions{Brightness: 30, GOP: 1}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(dst.Bytes(), src) {
		t.Error("edit produced identical stream")
	}
	// Output must still be a decodable MVC1 stream.
	det, _ := NewDetector(testConfig())
	if err := det.AddQuery(1, bytes.NewReader(dst.Bytes())); err != nil {
		t.Errorf("edited clip not decodable: %v", err)
	}
}

func TestComposeStreamValidations(t *testing.T) {
	if err := ComposeStream(io.Discard, 75, 1); err == nil {
		t.Error("empty compose accepted")
	}
	small := func() []byte {
		var b bytes.Buffer
		Synthesize(&b, VideoOptions{Seconds: 1, FPS: 2, W: 64, H: 48, GOP: 1})
		return b.Bytes()
	}()
	big := clip(t, 11, 1)
	if err := ComposeStream(io.Discard, 75, 1,
		bytes.NewReader(big), bytes.NewReader(small)); err == nil {
		t.Error("geometry mismatch accepted")
	}
}
