package server

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"strings"
	"testing"

	"vdsms/internal/buildinfo"
	"vdsms/internal/telemetry"
)

// catalogue returns the series names listed in README.md's metric
// catalogue: the first code span of every table row that starts with one.
func catalogue(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		row, ok := strings.CutPrefix(sc.Text(), "| `vcd_")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(row, "`")
		if names["vcd_"+name] {
			t.Errorf("catalogue lists vcd_%s twice", name)
		}
		names["vcd_"+name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

// TestMetricCatalogue is the exposition's hygiene gate: after a one-shot
// detector stream and a fleet stream run with span sampling on, every
// series family in the process registry must be listed in README.md's
// metric catalogue, and every histogram must pass LintHistograms.
func TestMetricCatalogue(t *testing.T) {
	buildinfo.Metric()

	srv, ts := testServer(t)
	srv.Lineage().Spans().SetSampleEvery(1)
	srv.Lineage().Spans().SetAllocEvery(1)
	do(t, http.MethodPut, ts.URL+"/queries/1", clip(t, 1, 16)).Body.Close()
	streamAndParse(t, ts, "catalogue-det", clip(t, 910, 20))
	if resp := do(t, http.MethodPost, ts.URL+"/streams", []byte(`{"id": "catalogue-fleet"}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("attach: %d", resp.StatusCode)
	}
	if resp := do(t, http.MethodPost, ts.URL+"/streams/catalogue-fleet/frames", clip(t, 911, 20)); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %d", resp.StatusCode)
	}
	do(t, http.MethodDelete, ts.URL+"/streams/catalogue-fleet", nil).Body.Close()

	var buf bytes.Buffer
	if err := telemetry.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	listed := catalogue(t)
	for family := range exp.Type {
		if !listed[family] {
			t.Errorf("series %s is not in README.md's metric catalogue", family)
		}
	}
	if err := exp.LintHistograms(); err != nil {
		t.Error(err)
	}
}
