package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"

	"vdsms/internal/perfobs"
	"vdsms/internal/telemetry"
)

// TestPerfSmoke is the `make perf-smoke` workload: a 64-stream fleet run
// at 1% span sampling, after which every observability surface must hold
// together — /metrics parses and lints clean with the in-repo parser,
// /debug/spans serves schema-stable span JSON, /debug/fleet/top serves
// the outlier report, and /stats carries the perf and fleet blocks. With
// PERF_SMOKE_OUT set, the sampled spans are written there as the CI
// artifact. Gated behind PERF_SMOKE=1: it pushes ~64 streams of video and
// is meant for the dedicated CI job (which runs it under -race), not
// every `go test ./...`.
func TestPerfSmoke(t *testing.T) {
	if os.Getenv("PERF_SMOKE") == "" {
		t.Skip("set PERF_SMOKE=1 to run the perf smoke workload")
	}
	srv, ts := testServer(t)
	srv.Lineage().Spans().SetSampleFraction(0.01)
	srv.Lineage().Spans().SetAllocEvery(2)
	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 16)).Body.Close()

	// 64 fleet streams, ~6 basic windows each: at 1% sampling the global
	// lineage's window counter guarantees a handful of sampled spans.
	const streams = 64
	seg := clip(t, 900, 30)
	for i := 0; i < streams; i++ {
		id := fmt.Sprintf("smoke-%02d", i)
		resp := do(t, http.MethodPost, ts.URL+"/streams", []byte(`{"id": "`+id+`"}`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("attach %s: %d", id, resp.StatusCode)
		}
		resp.Body.Close()
		resp = do(t, http.MethodPost, ts.URL+"/streams/"+id+"/frames", seg)
		if resp.StatusCode != 200 {
			t.Fatalf("push %s: %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	for i := 0; i < streams; i++ {
		do(t, http.MethodDelete, ts.URL+fmt.Sprintf("/streams/smoke-%02d", i), nil).Body.Close()
	}

	// /metrics must parse and lint clean with the in-repo parser.
	resp := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	var scrape bytes.Buffer
	scrape.ReadFrom(resp.Body)
	resp.Body.Close()
	e, err := telemetry.ParseExposition(bytes.NewReader(scrape.Bytes()))
	if err != nil {
		t.Fatalf("/metrics failed exposition parse: %v", err)
	}
	if err := e.LintHistograms(); err != nil {
		t.Errorf("/metrics failed histogram lint: %v", err)
	}
	if v, ok := e.Value("vcd_perf_spans_sampled_total"); !ok || v <= 0 {
		t.Errorf("vcd_perf_spans_sampled_total = %v (ok=%v), want > 0", v, ok)
	}
	if _, ok := e.Value("vcd_fleet_queue_depth"); !ok {
		t.Error("vcd_fleet_queue_depth missing from /metrics")
	}
	if v, ok := e.Value("vcd_fleet_outlier_slowest_ns"); !ok || v <= 0 {
		t.Errorf("vcd_fleet_outlier_slowest_ns = %v (ok=%v), want > 0", v, ok)
	}

	// /debug/spans: at least one schema-stable span line; keep the bytes
	// for the artifact.
	resp = do(t, http.MethodGet, ts.URL+"/debug/spans", nil)
	var spansBody bytes.Buffer
	spansBody.ReadFrom(resp.Body)
	resp.Body.Close()
	spans := 0
	sc := bufio.NewScanner(bytes.NewReader(spansBody.Bytes()))
	for sc.Scan() {
		var rec perfobs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if rec.Schema != "vcd_span/v1" {
			t.Errorf("span schema = %q", rec.Schema)
		}
		if rec.NS["window_total"] <= 0 {
			t.Errorf("span without window_total: %v", rec.NS)
		}
		spans++
	}
	if spans == 0 {
		t.Fatal("1% sampling produced no spans over the fleet run")
	}
	t.Logf("sampled %d spans across %d streams", spans, streams)

	// /debug/fleet/top: schema-stable outlier report with a slowest entry.
	resp = do(t, http.MethodGet, ts.URL+"/debug/fleet/top", nil)
	var rep perfobs.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Schema != "vcd_fleet_top/v1" {
		t.Errorf("fleet top schema = %q", rep.Schema)
	}
	if len(rep.Slowest) == 0 {
		t.Error("no slowest-stream outliers after a 64-stream run")
	}

	// /stats: perf and fleet blocks present and populated.
	resp = do(t, http.MethodGet, ts.URL+"/stats", nil)
	var st struct {
		Perf  map[string]any `json:"perf"`
		Fleet map[string]any `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if w, _ := st.Perf["windows"].(float64); w <= 0 {
		t.Errorf("/stats perf.windows = %v", st.Perf["windows"])
	}
	if hw, _ := st.Fleet["queueDepthHW"].(float64); hw <= 0 {
		t.Errorf("/stats fleet.queueDepthHW = %v", st.Fleet["queueDepthHW"])
	}

	if out := os.Getenv("PERF_SMOKE_OUT"); out != "" {
		if err := os.WriteFile(out, spansBody.Bytes(), 0o644); err != nil {
			t.Fatalf("writing span artifact: %v", err)
		}
		t.Logf("wrote span artifact to %s", out)
	}
}
