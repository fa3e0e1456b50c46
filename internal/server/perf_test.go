package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"vdsms/internal/perfobs"
)

// resetPerf returns the process-wide attribution state to its defaults so
// tests sharing the Default collector do not observe each other.
func resetPerf(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		perfobs.Default.SetSampleEvery(0)
		perfobs.Default.Reset()
		perfobs.DefaultOutliers.Reset()
	})
	perfobs.Default.SetSampleEvery(0)
	perfobs.Default.Reset()
	perfobs.DefaultOutliers.Reset()
}

func TestDebugSpansEndpoint(t *testing.T) {
	resetPerf(t)
	_, ts := testServer(t)

	// Arm 100% span sampling through the live-control POST.
	resp := do(t, http.MethodPost, ts.URL+"/debug/spans", []byte(`{"sampleEvery": 1}`))
	if resp.StatusCode != 200 {
		t.Fatalf("POST /debug/spans: %d", resp.StatusCode)
	}
	var ack map[string]int64
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if ack["sampleEvery"] != 1 {
		t.Fatalf("sampleEvery = %d, want 1", ack["sampleEvery"])
	}

	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 12)).Body.Close()
	streamAndParse(t, ts, "span-stream", clip(t, 400, 30))

	resp = do(t, http.MethodGet, ts.URL+"/debug/spans?limit=5", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/spans: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec perfobs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if rec.Schema != "vcd_span/v1" {
			t.Errorf("span schema = %q", rec.Schema)
		}
		if rec.Stream != "span-stream" {
			t.Errorf("span stream = %q", rec.Stream)
		}
		if rec.NS["window_total"] <= 0 {
			t.Errorf("span missing window_total: %v", rec.NS)
		}
		lines++
	}
	if lines == 0 || lines > 5 {
		t.Fatalf("got %d span lines, want 1..5", lines)
	}

	// Bad inputs.
	for _, tc := range []struct {
		method, url, body string
		want              int
	}{
		{http.MethodGet, "/debug/spans?limit=-1", "", http.StatusBadRequest},
		{http.MethodPost, "/debug/spans", `{"nonsense": true}`, http.StatusBadRequest},
		{http.MethodDelete, "/debug/spans", "", http.StatusMethodNotAllowed},
	} {
		var body []byte
		if tc.body != "" {
			body = []byte(tc.body)
		}
		resp := do(t, tc.method, ts.URL+tc.url, body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d", tc.method, tc.url, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
}

func TestFleetTopEndpoint(t *testing.T) {
	resetPerf(t)
	_, ts := testServer(t)
	perfobs.Default.SetSampleEvery(1)

	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 12)).Body.Close()
	streamAndParse(t, ts, "slowpoke", clip(t, 401, 30))

	resp := do(t, http.MethodGet, ts.URL+"/debug/fleet/top?limit=3", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /debug/fleet/top: %d", resp.StatusCode)
	}
	var rep perfobs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "vcd_fleet_top/v1" {
		t.Errorf("report schema = %q", rep.Schema)
	}
	if len(rep.Slowest) == 0 || rep.Slowest[0].Key != "slowpoke" {
		t.Errorf("slowest = %+v, want slowpoke on top", rep.Slowest)
	}
	if rep.Slowest[0].Count <= 0 {
		t.Errorf("slowest weight = %d", rep.Slowest[0].Count)
	}
}

func TestStatsPerfBlock(t *testing.T) {
	resetPerf(t)
	_, ts := testServer(t)
	perfobs.Default.SetSampleEvery(1)

	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 12)).Body.Close()
	streamAndParse(t, ts, "s-perf", clip(t, 402, 30))

	resp := do(t, http.MethodGet, ts.URL+"/stats", nil)
	defer resp.Body.Close()
	var st struct {
		Perf struct {
			SampleEvery  int64                         `json:"sampleEvery"`
			Windows      int64                         `json:"windows"`
			SpansSampled int64                         `json:"spansSampled"`
			Stages       map[string]map[string]float64 `json:"stages"`
			Outliers     map[string]map[string]any     `json:"outliers"`
		} `json:"perf"`
		Fleet struct {
			QueueDepthHW int64  `json:"queueDepthHW"`
			Ready        *int   `json:"ready"`
			QueuedFrames *int64 `json:"queuedFrames"`
			Workers      []struct {
				ID     int   `json:"id"`
				Passes int64 `json:"passes"`
				Frames int64 `json:"frames"`
			} `json:"workers"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Perf.SampleEvery != 1 {
		t.Errorf("perf.sampleEvery = %d", st.Perf.SampleEvery)
	}
	if st.Perf.Windows == 0 || st.Perf.SpansSampled == 0 {
		t.Errorf("perf fold empty: %+v", st.Perf)
	}
	if _, ok := st.Perf.Stages["window_total"]; !ok {
		t.Errorf("perf.stages missing window_total: %v", st.Perf.Stages)
	}
	// One row per worker, then the helpers' row; the backlog is the pool's.
	if n := len(st.Fleet.Workers); n < 2 || st.Fleet.Workers[0].ID != 0 || st.Fleet.Workers[n-1].ID != -1 {
		t.Errorf("fleet.workers = %+v, want worker rows then id -1", st.Fleet.Workers)
	}
	if st.Fleet.Ready == nil || st.Fleet.QueuedFrames == nil {
		t.Errorf("fleet.ready / fleet.queuedFrames missing")
	}
	if _, ok := st.Perf.Outliers["slowest"]; !ok {
		t.Errorf("perf.outliers missing slowest: %v", st.Perf.Outliers)
	}
}

// TestDebugSpansOffByDefault: with sampling disarmed nothing is captured —
// the ring stays empty and the endpoint returns an empty NDJSON body.
func TestDebugSpansOffByDefault(t *testing.T) {
	resetPerf(t)
	_, ts := testServer(t)

	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 12)).Body.Close()
	streamAndParse(t, ts, "quiet", clip(t, 403, 20))

	resp := do(t, http.MethodGet, ts.URL+"/debug/spans", nil)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var got []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			got = append(got, s)
		}
	}
	if len(got) != 0 {
		t.Errorf("sampling off but %d spans captured: %v", len(got), got)
	}
}
