package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// overloadGates returns the list of violated acceptance gates for one sweep
// (nil when all pass). Factored out so the retry loop below and the failure
// report share one rulebook.
func overloadGates(rep *OverloadReport) []string {
	var v []string
	calib, observe, shed := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if calib.Recall < 1 {
		v = append(v, fmt.Sprintf("calibration recall %.2f, want 1.00 — the workload itself must be fully detectable", calib.Recall))
	}
	if observe.Level == 0 {
		v = append(v, "observe-only pass never escalated: the tight budget did not register as overload")
	}
	if observe.ExtractShed != 0 || observe.DecodeShed != 0 {
		v = append(v, fmt.Sprintf("observe-only pass shed work (extract=%d decode=%d)", observe.ExtractShed, observe.DecodeShed))
	}
	if observe.Recall < calib.Recall {
		v = append(v, fmt.Sprintf("observe-only recall %.2f below calibration %.2f — observing must not change output", observe.Recall, calib.Recall))
	}
	if shed.Level < 2 {
		v = append(v, fmt.Sprintf("shed pass settled at level %d; at 2× sustainable ingest with a decode-dominated pipeline, extract-only shedding (level 1) cannot bound the p99", shed.Level))
	}
	if shed.DecodeShed == 0 {
		v = append(v, "shed pass escalated to decode shedding but dropped no decodes")
	}
	// The acceptance gate: at 2× sustainable ingest the steady-state p99
	// must come back inside the real-time budget.
	if shed.SteadyP99Sec > rep.BudgetSec {
		v = append(v, fmt.Sprintf("shed steady p99 %.2fms exceeds the %.2fms budget — shedding failed to bound latency",
			shed.SteadyP99Sec*1e3, rep.BudgetSec*1e3))
	}
	// Recall floor: shedding trades fidelity for latency, but most copies
	// must still be caught.
	if shed.Recall < 0.5 {
		v = append(v, fmt.Sprintf("shed recall %.2f below the 0.5 floor", shed.Recall))
	}
	return v
}

// TestOverloadSmoke is the CI gate for the adaptive-ingest layer: the sweep
// (calibrate → observe-only at 2× sustainable ingest → shed) must show the
// controller escalating under the tight budget and shedding bringing the
// steady-state p99 back within it, with recall no worse than the floor.
//
// The sweep measures wall-clock latency, so a scheduler stall or co-tenant
// CPU burst in the wrong pass can fail gates no shedding policy could hold;
// like any timing assertion it gets a bounded number of attempts and passes
// on the first quiet run. When OVERLOAD_REPORT_DIR is set (the CI
// overload-smoke job), the last sweep's report is written as a JSON
// artifact.
func TestOverloadSmoke(t *testing.T) {
	const attempts = 3
	var rep *OverloadReport
	var violations []string
	for a := 1; a <= attempts; a++ {
		var err error
		rep, err = OverloadRun(int64(a))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Rows {
			t.Logf("attempt %d: %-9s budget=%.1fms level=%d p99=%.1fms windows=%d shed=%d/%d recall=%.2f loss=%.1f%%",
				a, r.Mode, r.BudgetSec*1e3, r.Level, r.SteadyP99Sec*1e3,
				r.Windows, r.ExtractShed, r.DecodeShed, r.Recall, r.RecallLossPct)
		}
		violations = overloadGates(rep)
		if violations == nil {
			break
		}
		t.Logf("attempt %d violated %d gate(s): %v", a, len(violations), violations)
	}
	for _, v := range violations {
		t.Error(v)
	}
	// The vcdbench table of the sweep, which the registry sweep leaves to
	// this test.
	tb := overloadTable(rep)
	if tb.NumRows() != len(rep.Rows) || !strings.Contains(tb.String(), "#") {
		t.Errorf("overload table has %d rows for %d passes, or no title:\n%s", tb.NumRows(), len(rep.Rows), tb)
	}

	if dir := os.Getenv("OVERLOAD_REPORT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "overload-smoke.json"))
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
