package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vdsms"
)

// checkpointServer builds a server persisting into a temp directory.
func checkpointServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	cfg.Delta = 0.6
	cfg.CheckpointDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestSnapshotEndpointDisabled: without a checkpoint directory, POST
// /snapshot explains itself with 503 and /stats reports checkpointing off.
func TestSnapshotEndpointDisabled(t *testing.T) {
	_, ts := testServer(t)
	resp := do(t, http.MethodPost, ts.URL+"/snapshot", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("snapshot without checkpoint dir: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	resp = do(t, http.MethodGet, ts.URL+"/stats", nil)
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if on, _ := st["checkpointing"].(bool); on {
		t.Error("stats report checkpointing enabled without a checkpoint dir")
	}
}

// TestSnapshotEndpointMethod: only POST checkpoints.
func TestSnapshotEndpointMethod(t *testing.T) {
	_, ts := checkpointServer(t, t.TempDir())
	resp := do(t, http.MethodGet, ts.URL+"/snapshot", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /snapshot: %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSnapshotRestoresAcrossRestart is the service-level recovery story:
// subscribe, POST /snapshot, tear the server down, boot a fresh one on the
// same directory — the subscription set is back and keeps matching.
func TestSnapshotRestoresAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := checkpointServer(t, dir)
	if s1.Restored() {
		t.Error("fresh server claims to be restored")
	}
	query := clip(t, 51, 20)
	do(t, http.MethodPut, ts1.URL+"/queries/3", query).Body.Close()

	resp := do(t, http.MethodPost, ts1.URL+"/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot: %d", resp.StatusCode)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if ok, _ := out["checkpointed"].(bool); !ok {
		t.Errorf("snapshot response %v", out)
	}
	if n, _ := out["queries"].(float64); n != 1 {
		t.Errorf("snapshot reports %v queries, want 1", out["queries"])
	}
	ts1.Close() // crash the first service

	s2, ts2 := checkpointServer(t, dir)
	if !s2.Restored() {
		t.Fatal("second boot did not restore from the checkpoint")
	}
	if n := s2.NumQueries(); n != 1 {
		t.Fatalf("restored %d queries, want 1", n)
	}
	var stream bytes.Buffer
	err := vdsms.ComposeStream(&stream, 75, 1,
		bytes.NewReader(clip(t, 500, 20)),
		bytes.NewReader(query),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := streamAndParse(t, ts2, "after-restart", stream.Bytes())
	if len(events) == 0 {
		t.Fatal("restored subscription detected nothing")
	}
	for _, ev := range events {
		if ev.Query != 3 {
			t.Errorf("match for query %d, want 3", ev.Query)
		}
	}
}

// TestStatsCompared: /stats accumulates the streams' similarity
// evaluations, and the total equals the sum of the per-stream counts their
// done lines reported.
func TestStatsCompared(t *testing.T) {
	_, ts := checkpointServer(t, t.TempDir())
	queries := [][]byte{clip(t, 61, 12), clip(t, 62, 12), clip(t, 63, 12)}
	for i, q := range queries {
		do(t, http.MethodPut, ts.URL+"/queries/"+string(rune('1'+i)), q).Body.Close()
	}
	// Streams carry actual query copies so the kernel has candidates to
	// evaluate — pure noise is pruned before any similarity comparison.
	var perStream int64
	for c, q := range queries[:2] {
		var stream bytes.Buffer
		err := vdsms.ComposeStream(&stream, 75, 1,
			bytes.NewReader(clip(t, int64(600+c), 20)),
			bytes.NewReader(q),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, sum := streamAndParse(t, ts, "s"+string(rune('1'+c)), stream.Bytes())
		perStream += sum.Compared
	}

	resp := do(t, http.MethodGet, ts.URL+"/stats", nil)
	defer resp.Body.Close()
	var st struct {
		Compared      int64 `json:"compared"`
		Checkpointing bool  `json:"checkpointing"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Compared == 0 {
		t.Error("no comparisons recorded")
	}
	if st.Compared != perStream {
		t.Errorf("compared = %d, but the streams' done lines sum to %d", st.Compared, perStream)
	}
	if !st.Checkpointing {
		t.Error("stats report checkpointing disabled despite a checkpoint dir")
	}
}
