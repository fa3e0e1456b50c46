package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vdsms"
	"vdsms/internal/telemetry"
)

// obsServer builds a server exercising every instrumented layer, a
// checkpoint directory (WAL and checkpoint durations) included.
func obsServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	cfg.Delta = 0.6
	cfg.CheckpointDir = t.TempDir()
	s, err := NewWithOptions(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func scrape(t *testing.T, ts *httptest.Server) *telemetry.Exposition {
	t.Helper()
	resp := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return exp
}

// TestMetricsEndToEnd drives a matching stream through a fully instrumented
// server and validates the scrape structurally: the exposition parses, the
// pipeline/durability/service series all exist with the right types, and the
// counters moved by the stream's work. Deltas, not absolutes: the registry
// is process-global and other tests in this binary feed it too.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := obsServer(t, Options{})
	// A checkpoint that holds one sketch (3.2 KB at K=400): the size rule —
	// checkpoint once the log outgrows it — then has nothing to say about
	// the two ~100-byte records below, which an empty plane's ~100-byte
	// checkpoint would not guarantee.
	do(t, http.MethodPut, ts.URL+"/queries/8", clip(t, 6, 20)).Body.Close()
	do(t, http.MethodPost, ts.URL+"/snapshot", nil).Body.Close()
	before := scrape(t, ts)

	query := clip(t, 5, 20)
	do(t, http.MethodPut, ts.URL+"/queries/7", query).Body.Close()
	do(t, http.MethodDelete, ts.URL+"/queries/8", nil).Body.Close()
	var stream bytes.Buffer
	err := vdsms.ComposeStream(&stream, 75, 1,
		bytes.NewReader(clip(t, 100, 20)),
		bytes.NewReader(query),
		bytes.NewReader(clip(t, 101, 20)),
	)
	if err != nil {
		t.Fatal(err)
	}
	events, _ := streamAndParse(t, ts, "obs-1", stream.Bytes())
	if len(events) == 0 {
		t.Fatal("stream produced no matches; the vcd_matches_total assertion needs some")
	}

	after := scrape(t, ts)
	delta := func(name string, labels ...telemetry.Label) float64 {
		t.Helper()
		a, ok := after.Value(name, labels...)
		if !ok {
			t.Fatalf("scrape is missing %s%v", name, labels)
		}
		b, _ := before.Value(name, labels...)
		return a - b
	}

	if d := delta("vcd_windows_processed_total"); d <= 0 {
		t.Errorf("vcd_windows_processed_total moved by %g, want > 0", d)
	}
	if d := delta("vcd_matches_total"); float64(len(events)) > d {
		t.Errorf("vcd_matches_total moved by %g, want >= %d", d, len(events))
	}
	if d := delta("vcd_frames_total"); d <= 0 {
		t.Errorf("vcd_frames_total moved by %g, want > 0", d)
	}

	// Every pipeline stage observed its per-window histogram, front end
	// (decode, extract — facade) and matching kernel (core) alike.
	stages := []string{"decode", "extract", "sketch", "probe", "combine", "merge", "window_total"}
	var windows float64
	for _, stage := range stages {
		d := delta("vcd_stage_duration_seconds_count", telemetry.L("stage", stage))
		if d <= 0 {
			t.Errorf("stage %q: histogram count moved by %g, want > 0", stage, d)
		}
		if stage == "window_total" {
			windows = d
		}
	}
	if w := delta("vcd_windows_processed_total"); w != windows {
		t.Errorf("window_total observations (%g) != windows processed (%g)", windows, w)
	}

	// Durability layer. The root detector owns the checkpoint lineage
	// (per-stream detectors deliberately run without one). A subscription
	// change costs one synced WAL record — not a checkpoint: those are
	// written when a lineage starts, on request, and when the log has
	// outgrown the one it extends.
	for _, op := range []string{"add", "remove"} {
		if d := delta("vcd_wal_plane_records_total", telemetry.L("op", op)); d != 1 {
			t.Errorf("vcd_wal_plane_records_total{op=%q} moved by %g, want 1", op, d)
		}
	}
	if d := delta("vcd_wal_fsync_duration_seconds_count"); d < 2 {
		t.Errorf("vcd_wal_fsync_duration_seconds observed %g times, want one per subscription change", d)
	}
	for _, name := range []string{"vcd_checkpoints_total", "vcd_checkpoint_write_duration_seconds_count", "vcd_checkpoint_compactions_total"} {
		if d := delta(name); d != 0 {
			t.Errorf("%s moved by %g on subscription changes, want 0", name, d)
		}
	}
	if d := delta("vcd_wal_bytes"); d <= 0 {
		t.Errorf("vcd_wal_bytes moved by %g over two appended records, want > 0", d)
	}
	// Frame appends happen only in checkpointed monitors (exercised by the
	// facade tests); here the series just has to be scraped.
	if _, ok := after.Value("vcd_wal_append_duration_seconds_count"); !ok {
		t.Error("scrape is missing vcd_wal_append_duration_seconds")
	}

	if d := delta("vcd_compared_total"); d <= 0 {
		t.Errorf("vcd_compared_total moved by %g, want > 0", d)
	}

	// Service layer.
	if d := delta("vcd_streams_served_total"); d != 1 {
		t.Errorf("vcd_streams_served_total moved by %g, want 1", d)
	}
	if v, ok := after.Value("vcd_queries"); !ok || v < 1 {
		t.Errorf("vcd_queries = %g, %v; want >= 1", v, ok)
	}

	// Families carry the types the exposition format promises.
	for family, typ := range map[string]string{
		"vcd_windows_processed_total":    "counter",
		"vcd_matches_total":              "counter",
		"vcd_stage_duration_seconds":     "histogram",
		"vcd_wal_fsync_duration_seconds": "histogram",
		"vcd_wal_plane_records_total":    "counter",
		"vcd_wal_bytes":                  "gauge",
		"vcd_compared_total":             "counter",
		"vcd_streams_active":             "gauge",
	} {
		if got := after.Type[family]; got != typ {
			t.Errorf("TYPE %s = %q, want %q", family, got, typ)
		}
	}
}

// TestPlaneGaugesFollowSubscriptions: a subscription through the server's
// root detector publishes the new plane on the vcd_fleet_plane_* gauges,
// as a fleet's own AddQuery does.
func TestPlaneGaugesFollowSubscriptions(t *testing.T) {
	_, ts := testServer(t)
	before := scrape(t, ts)
	resp := do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT query: %d", resp.StatusCode)
	}
	after := scrape(t, ts)
	value := func(e *telemetry.Exposition, name string) float64 {
		t.Helper()
		v, ok := e.Value(name)
		if !ok {
			t.Fatalf("scrape is missing %s", name)
		}
		return v
	}
	if b, a := value(before, "vcd_fleet_plane_version"), value(after, "vcd_fleet_plane_version"); a != b+1 {
		t.Errorf("vcd_fleet_plane_version = %g after one PUT, was %g: want one version more", a, b)
	}
	if b, a := value(before, "vcd_fleet_plane_bytes"), value(after, "vcd_fleet_plane_bytes"); a <= b {
		t.Errorf("vcd_fleet_plane_bytes = %g after one PUT, was %g: want the sketch counted", a, b)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
	var out map[string]bool
	json.NewDecoder(resp.Body).Decode(&out)
	if !out["ok"] {
		t.Errorf("healthz body %v", out)
	}
	bad := do(t, http.MethodPost, ts.URL+"/healthz", nil)
	bad.Body.Close()
	if bad.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: %d", bad.StatusCode)
	}
}

func TestReadyz(t *testing.T) {
	// A server that has not finished restore-on-boot reports 503. New flips
	// ready as its last act, so the not-ready window is simulated directly.
	s, ts := testServer(t)
	s.ready.Store(false)
	resp := do(t, http.MethodGet, ts.URL+"/readyz", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("not-ready /readyz: %d, want 503", resp.StatusCode)
	}

	s.ready.Store(true)
	resp = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready /readyz: %d", resp.StatusCode)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if out["ready"] != true {
		t.Errorf("readyz body %v", out)
	}
	if _, ok := out["restored"]; !ok {
		t.Errorf("readyz body missing restored flag: %v", out)
	}
}

// TestReadyzAfterResume checks the restored flag surfaces a real
// restore-on-boot.
func TestReadyzAfterResume(t *testing.T) {
	cfg := vdsms.DefaultConfig()
	cfg.K = 400
	cfg.CheckpointDir = t.TempDir()
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	do(t, http.MethodPut, ts1.URL+"/queries/3", clip(t, 3, 12)).Body.Close()
	ts1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp := do(t, http.MethodGet, ts2.URL+"/readyz", nil)
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	if out["restored"] != true {
		t.Errorf("second boot readyz = %v, want restored=true", out)
	}
	if s2.NumQueries() != 1 {
		t.Errorf("restored %d queries, want 1", s2.NumQueries())
	}
}

func TestPprofOptIn(t *testing.T) {
	// Default surface: profiling is absent.
	_, off := testServer(t)
	resp := do(t, http.MethodGet, off.URL+"/debug/pprof/", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, on := obsServer(t, Options{EnablePprof: true})
	resp = do(t, http.MethodGet, on.URL+"/debug/pprof/", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp = do(t, http.MethodGet, on.URL+"/debug/pprof/cmdline", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: GET /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}

// TestStatsConcurrentWithStreamAndChurn is the point-in-time /stats
// contract under fire: scrapes and stats reads run against an in-flight
// stream upload and subscription churn (which checkpoints — and so fsyncs —
// under the subscription mutex). Wait-free reads mean none of these block;
// the race detector checks the rest.
func TestStatsConcurrentWithStreamAndChurn(t *testing.T) {
	_, ts := obsServer(t, Options{})
	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 21, 12)).Body.Close()
	stream := clip(t, 420, 30)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		streamAndParse(t, ts, "busy", stream)
	}()

	wg.Add(1)
	go func() { // subscription churn: add/remove under mu, checkpointing each time
		defer wg.Done()
		for i := 0; i < 5; i++ {
			do(t, http.MethodPut, ts.URL+"/queries/50", clip(t, 50, 8)).Body.Close()
			do(t, http.MethodDelete, ts.URL+"/queries/50", nil).Body.Close()
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := do(t, http.MethodGet, ts.URL+"/stats", nil)
				var st map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Errorf("stats read %d: %v", i, err)
				}
				resp.Body.Close()
				if _, ok := st["streamsActive"]; !ok {
					t.Errorf("stats read %d missing streamsActive: %v", i, st)
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // scrapes interleaved with everything above
		defer wg.Done()
		for i := 0; i < 10; i++ {
			scrape(t, ts)
		}
	}()
	wg.Wait()

	// Quiescent again: the active-stream gauge and counter settled.
	resp := do(t, http.MethodGet, ts.URL+"/stats", nil)
	defer resp.Body.Close()
	var st map[string]float64
	json.NewDecoder(resp.Body).Decode(&st)
	if st["streamsActive"] != 0 {
		t.Errorf("streamsActive = %g after all streams finished", st["streamsActive"])
	}
	if st["streamsServed"] != 1 {
		t.Errorf("streamsServed = %g, want 1", st["streamsServed"])
	}
}
