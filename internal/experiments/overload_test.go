package experiments

import (
	"slices"
	"strings"
	"testing"
)

// TestOverloadTable renders a hand-built sweep — vcdbench overload's table
// without a timed run: one line per pass in the order given, durations in
// milliseconds, recall and its loss formatted. The sweep itself is timed by
// the wall clock and gated nowhere; its exact counterpart is the root
// package's TestOverloadSmoke.
func TestOverloadTable(t *testing.T) {
	rows := []overloadRow{
		{Mode: "calibrate", BudgetSec: 3600, SteadyP99Sec: 963.4e-6, Windows: 177, Matches: 37, Recall: 1},
		{Mode: "observe", BudgetSec: 481.7e-6, Level: 3, SteadyP99Sec: 990.2e-6, Windows: 177, ShedWindows: 160, Matches: 37, Recall: 1},
		{Mode: "shed", BudgetSec: 481.7e-6, Level: 3, SteadyP99Sec: 330.6e-6, Windows: 177, ShedWindows: 160,
			ExtractShed: 14, DecodeShed: 468, Matches: 16, Recall: 4.0 / 6, RecallLossPct: 100.0 / 3},
	}
	tb := overloadTable(rows)
	s := tb.String()
	if tb.NumRows() != len(rows) || !strings.Contains(s, "# Overload") {
		t.Fatalf("%d rows for %d passes, or no title:\n%s", tb.NumRows(), len(rows), s)
	}
	want := [][]string{
		{"calibrate", "3600000.00ms", "0", "0.96ms", "177", "0", "0", "0", "37", "1.00", "0.0%"},
		{"observe", "0.48ms", "3", "0.99ms", "177", "160", "0", "0", "37", "1.00", "0.0%"},
		{"shed", "0.48ms", "3", "0.33ms", "177", "160", "14", "468", "16", "0.67", "33.3%"},
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i, w := range want {
		if got := strings.Fields(lines[len(lines)-len(want)+i]); !slices.Equal(got, w) {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
}
