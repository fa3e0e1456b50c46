package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQueryScaleSmoke is the reduced-scale CI gate for the pre-filter
// tier: 10³ synthetic queries streamed with the tier off and on (the full
// sweep's smallest level). It pins the tier's three contracts — match
// output identical, ≥90% of per-row searches rejected before any index
// work on this mostly-background workload, and not one false positive —
// and, when QUERYSCALE_REPORT_DIR is set (the CI queryscale-smoke job),
// writes the measured row as a JSON artifact.
func TestQueryScaleSmoke(t *testing.T) {
	row, err := QueryScaleRun(1_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("queryscale m=1000: %+v", row)
	if !row.Identical {
		t.Error("pre-filter changed match output; the tier must be byte-identical")
	}
	if row.Matches == 0 {
		t.Error("workload produced no matches; the equality check is vacuous")
	}
	if row.RejectPct < 90 {
		t.Errorf("row rejection rate %.1f%% below the 90%% bar", row.RejectPct)
	}
	if row.FPPct != 0 {
		t.Errorf("false-positive rate %.2f%%: the exact tier admitted an empty search", row.FPPct)
	}
	if row.BytesPerQuery <= 0 || row.BytesPerQuery > 4096 {
		t.Errorf("bytes/query %.1f outside (0, 4096] — memory accounting broken or cell table oversized", row.BytesPerQuery)
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
