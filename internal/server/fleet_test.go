package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vdsms"
)

func attach(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"id": id})
	return do(t, http.MethodPost, ts.URL+"/streams", body)
}

func TestFleetAttachDetach(t *testing.T) {
	_, ts := testServer(t)

	resp := attach(t, ts, "cam-1")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("attach: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = attach(t, ts, "cam-1")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate attach: %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = do(t, http.MethodGet, ts.URL+"/streams", nil)
	var list struct {
		Streams []string `json:"streams"`
		Count   int      `json:"count"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Count != 1 || len(list.Streams) != 1 || list.Streams[0] != "cam-1" {
		t.Fatalf("list: %+v", list)
	}

	resp = do(t, http.MethodDelete, ts.URL+"/streams/cam-1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("detach: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = do(t, http.MethodDelete, ts.URL+"/streams/cam-1", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detach of detached stream: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestFleetAdmissionLimit(t *testing.T) {
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	s, err := NewWithOptions(cfg, Options{Fleet: vdsms.FleetConfig{MaxStreams: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := attach(t, ts, fmt.Sprintf("cam-%d", i))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("attach %d: %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := attach(t, ts, "cam-overflow")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit attach: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFleetSegmentDetection drives the full attached-stream lifecycle: a
// query is subscribed, a stream attaches, pushes its feed as multiple
// segments, and the per-stream stats and matches endpoints report the
// embedded copy.
func TestFleetSegmentDetection(t *testing.T) {
	_, ts := testServer(t)
	query := clip(t, 5, 20)
	do(t, http.MethodPut, ts.URL+"/queries/7", query).Body.Close()

	attach(t, ts, "cam-1").Body.Close()
	for i, seg := range [][]byte{clip(t, 100, 30), query, clip(t, 101, 30)} {
		// A segment that finds the 80-frame queue still holding its
		// predecessor is refused whole with 429; the protocol's answer is to
		// resend the same bytes, which is what a client does here.
		resp := do(t, http.MethodPost, ts.URL+"/streams/cam-1/frames", seg)
		for tries := 0; resp.StatusCode == http.StatusTooManyRequests && tries < 400; tries++ {
			resp.Body.Close()
			time.Sleep(5 * time.Millisecond)
			resp = do(t, http.MethodPost, ts.URL+"/streams/cam-1/frames", seg)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("push segment %d: %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Detach drains and flushes, making the final counts deterministic;
	// its response is the stream's last word (the id leaves the pool).
	resp := do(t, http.MethodDelete, ts.URL+"/streams/cam-1", nil)
	var det struct {
		Frames  int          `json:"frames"`
		Matches []matchEvent `json:"matches"`
	}
	json.NewDecoder(resp.Body).Decode(&det)
	resp.Body.Close()
	if det.Frames != 160 {
		t.Errorf("frames = %d, want 160", det.Frames)
	}
	if len(det.Matches) == 0 {
		t.Fatal("no matches on detach summary")
	}
	for _, ev := range det.Matches {
		if ev.Query != 7 {
			t.Errorf("match for query %d", ev.Query)
		}
		if ev.DetectedAt < 30 || ev.DetectedAt > 60 {
			t.Errorf("match at %gs, copy is at 30-50s", ev.DetectedAt)
		}
	}
}

func TestFleetPushErrors(t *testing.T) {
	_, ts := testServer(t)
	resp := do(t, http.MethodPost, ts.URL+"/streams/ghost/frames", clip(t, 1, 4))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("push to unattached stream: %d", resp.StatusCode)
	}
	resp.Body.Close()

	attach(t, ts, "cam-1").Body.Close()
	resp = do(t, http.MethodPost, ts.URL+"/streams/cam-1/frames", []byte("not mvc1"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage segment: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// 82 key frames against the default queue of 8 windows of 10: the empty
	// queue could not take it either, so the answer must not invite a retry.
	resp = do(t, http.MethodPost, ts.URL+"/streams/cam-1/frames", clip(t, 2, 41))
	if resp.StatusCode != http.StatusRequestEntityTooLarge || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("segment larger than the queue: %d, Retry-After %q; want 413 and none",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	resp = do(t, http.MethodGet, ts.URL+"/streams/cam-1/stats", nil)
	var st struct {
		Frames int `json:"frames"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Frames != 0 {
		t.Errorf("rejected segments fed %d frames", st.Frames)
	}
}

// TestFleetSharedSubscription pins the memory model's visible half: a
// query subscribed through the legacy PUT endpoint is seen by attached
// fleet streams (one plane serves both surfaces).
func TestFleetSharedSubscription(t *testing.T) {
	_, ts := testServer(t)
	attach(t, ts, "cam-1").Body.Close()

	query := clip(t, 9, 20)
	do(t, http.MethodPut, ts.URL+"/queries/3", query).Body.Close()

	var stream bytes.Buffer
	if err := vdsms.ComposeStream(&stream, 75, 1,
		bytes.NewReader(clip(t, 200, 20)), bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	resp := do(t, http.MethodPost, ts.URL+"/streams/cam-1/frames", stream.Bytes())
	resp.Body.Close()

	resp = do(t, http.MethodDelete, ts.URL+"/streams/cam-1", nil)
	var got struct {
		Matches []matchEvent `json:"matches"`
	}
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if len(got.Matches) == 0 {
		t.Fatal("fleet stream did not see the shared subscription")
	}
}
