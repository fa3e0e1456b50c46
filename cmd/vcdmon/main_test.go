package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vdsms"
)

func writeClip(t *testing.T, dir, name string, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	err := vdsms.Synthesize(&buf, vdsms.VideoOptions{
		Seconds: 8, FPS: 2, W: 96, H: 80, Seed: seed, Quality: 80, GOP: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSubscribeQueriesSkipsBadPaths: a missing file and an undecodable
// clip are logged and skipped; the remaining queries still subscribe.
func TestSubscribeQueriesSkipsBadPaths(t *testing.T) {
	dir := t.TempDir()
	good1 := writeClip(t, dir, "a.mvc", 1)
	good2 := writeClip(t, dir, "b.mvc", 2)
	garbage := filepath.Join(dir, "garbage.mvc")
	if err := os.WriteFile(garbage, []byte("not a video"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, skipped := subscribeQueries(det, []string{
		good1,
		filepath.Join(dir, "missing.mvc"),
		garbage,
		"7=" + good2,
	})
	if loaded != 2 {
		t.Fatalf("loaded %d queries, want 2", loaded)
	}
	if skipped != 2 {
		t.Fatalf("skipped %d specs, want 2 (missing file + garbage)", skipped)
	}
	if n := det.NumQueries(); n != 2 {
		t.Fatalf("detector holds %d queries, want 2", n)
	}
	ids := det.QueryIDs()
	have := map[int]bool{}
	for _, id := range ids {
		have[id] = true
	}
	if !have[1] || !have[7] {
		t.Fatalf("subscribed ids %v, want {1, 7}", ids)
	}
}

// TestSubscribeQueriesSkipsRestoredIDs: a spec whose id is already
// subscribed (e.g. restored from a checkpoint) is not re-added.
func TestSubscribeQueriesSkipsRestoredIDs(t *testing.T) {
	dir := t.TempDir()
	a := writeClip(t, dir, "a.mvc", 3)
	b := writeClip(t, dir, "b.mvc", 4)

	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, skipped := subscribeQueries(det, []string{"1=" + b})
	if loaded != 0 {
		t.Fatalf("loaded %d queries over an existing id, want 0", loaded)
	}
	if skipped != 0 {
		t.Fatalf("restored-id duplicate counted as skipped (%d), want 0", skipped)
	}
	if n := det.NumQueries(); n != 1 {
		t.Fatalf("detector holds %d queries, want 1", n)
	}
}

// TestSubscribeQueriesSkipsDuplicateSpecIDs: `-q a.mvc -q 1=b.mvc` gives
// both specs id 1. The second is not a restored subscription but a clash
// inside one run: it is counted as skipped and as a rejected input, and the
// first spec's clip stays subscribed.
func TestSubscribeQueriesSkipsDuplicateSpecIDs(t *testing.T) {
	dir := t.TempDir()
	a := writeClip(t, dir, "a.mvc", 5)
	b := writeClip(t, dir, "b.mvc", 6)

	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rejected := telStreamsRejected.Value()
	loaded, skipped := subscribeQueries(det, []string{a, "1=" + b})
	if loaded != 1 {
		t.Fatalf("loaded %d queries, want 1", loaded)
	}
	if skipped != 1 {
		t.Fatalf("skipped %d specs, want 1 (the second spec's id 1 was taken by the first)", skipped)
	}
	if d := telStreamsRejected.Value() - rejected; d != 1 {
		t.Fatalf("vcd_streams_rejected_total rose by %d, want 1", d)
	}
	if ids := det.QueryIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("subscribed ids %v, want [1]", ids)
	}
}

// TestSubscribeQueriesAllBad: nothing loads, nothing subscribed — the
// caller's zero-queries check then aborts the run.
func TestSubscribeQueriesAllBad(t *testing.T) {
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loaded, skipped := subscribeQueries(det, []string{"/nonexistent/x.mvc", "/nonexistent/y.mvc"})
	if loaded != 0 {
		t.Fatalf("loaded %d, want 0", loaded)
	}
	if skipped != 2 {
		t.Fatalf("skipped %d, want 2", skipped)
	}
	if det.NumQueries() != 0 {
		t.Fatalf("detector holds %d queries, want 0", det.NumQueries())
	}
}
