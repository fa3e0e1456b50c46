package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQueryScaleSmoke is the reduced-scale CI gate for the query index:
// 10³ synthetic queries streamed with the index and with the scan (the
// full sweep's smallest level). It pins the index's contracts — match
// output identical to the scan's, work done on the few related queries
// only, and memory per query bounded — and, when QUERYSCALE_REPORT_DIR is
// set (the CI queryscale-smoke job), writes the measured row as a JSON
// artifact.
func TestQueryScaleSmoke(t *testing.T) {
	row, err := QueryScaleRun(1_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("queryscale m=1000: %+v", row)
	if !row.Identical {
		t.Error("the index changed match output; it must equal the scan's")
	}
	if row.Matches == 0 {
		t.Error("workload produced no matches; the equality check is vacuous")
	}
	// A window is related to at most a true copy's query: comparing all K
	// positions of every query would be 1 000·128.
	if row.ComparisonsPerWindow <= 0 || row.ComparisonsPerWindow > 2*128 {
		t.Errorf("%.1f comparisons per window: the index did work on unrelated queries, or none", row.ComparisonsPerWindow)
	}
	if row.BytesPerQuery <= 0 || row.BytesPerQuery > 4096 {
		t.Errorf("bytes/query %.1f outside (0, 4096] — memory accounting broken or postings oversized", row.BytesPerQuery)
	}

	if dir := os.Getenv("QUERYSCALE_REPORT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "queryscale-smoke.json"))
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode([]QueryScaleRow{row}); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
