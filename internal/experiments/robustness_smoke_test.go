package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/edit"
	"vdsms/internal/partition"
	"vdsms/internal/workload"
)

// TestRobustnessSmoke is the reduced-scale end-to-end robustness gate: a
// small temporal-attack workload (3 shorts × {none, speed, drop, reorder})
// streamed through the real engine in two configurations, scored per
// attack family. It pins recall floors per family so a future speed
// optimisation that silently trades detection quality fails here, and —
// when ROBUSTNESS_REPORT_DIR is set (the CI robustness-smoke job) — writes
// the per-family P/R report as JSON and CSV artifacts.
func TestRobustnessSmoke(t *testing.T) {
	t.Parallel()
	aw := workload.BuildAttack(workload.AttackConfig{
		Base: workload.Config{
			NumShorts: 3, ShortMinSec: 10, ShortMaxSec: 16,
			GapMinSec: 4, GapMaxSec: 6,
			KeyFPS: 2, W: 96, H: 80, Quality: 78, Seed: 20080407,
		},
		Families: []string{edit.FamilyNone, edit.FamilySpeed, edit.FamilyDrop, edit.FamilyReorder},
	})
	dv, err := derive(aw.Workload, 4, 5, partition.GridPyramid)
	if err != nil {
		t.Fatal(err)
	}
	w := dv.cfg.KeyWindowFrames(5)

	// Recall floors per family at δ=0.5. The workload is deterministic, so
	// these pin today's quality; lower them only with a quality analysis,
	// never to make a speed PR pass.
	floors := map[string]float64{
		edit.FamilyNone:    1.0,
		edit.FamilySpeed:   0.6,
		edit.FamilyDrop:    0.6,
		edit.FamilyReorder: 0.6,
	}

	reportDir := os.Getenv("ROBUSTNESS_REPORT_DIR")
	for _, tc := range []struct {
		name   string
		method core.Method
		order  core.Order
	}{
		{"bit-seq", core.Bit, core.Sequential},
		{"sketch-geo", core.Sketch, core.Geometric},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{
				K: 400, Seed: 1, Delta: 0.5, Lambda: 2, WindowFrames: w,
				Method: tc.method, Order: tc.order, UseIndex: true,
			}
			run, err := temporalRun(cfg, dv, aw.Meta, w)
			if err != nil {
				t.Fatal(err)
			}
			if run.Overall.Precision < 0.9 {
				t.Errorf("overall precision %.3f below 0.9", run.Overall.Precision)
			}
			seen := map[string]bool{}
			for _, fr := range run.Families {
				seen[fr.Family] = true
				if floor, ok := floors[fr.Family]; ok && fr.Recall < floor {
					t.Errorf("family %q recall %.3f below floor %.2f (%+v)", fr.Family, fr.Recall, floor, fr.Eval)
				}
			}
			for fam := range floors {
				if !seen[fam] {
					t.Errorf("family %q missing from results", fam)
				}
			}
			if reportDir != "" {
				writeSmokeReport(t, reportDir, tc.name, run, dv.cfg.KeyFPS)
			}
		})
	}
}

// writeSmokeReport renders one configuration's per-family report in both
// machine-readable formats for the CI artifact upload.
func writeSmokeReport(t *testing.T, dir, name string, run TemporalRun, keyFPS float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	rep := workload.NewFamilyReport(run.Overall, run.Families, 5, keyFPS)
	for ext, fn := range map[string]func(*os.File) error{
		"json": func(f *os.File) error { return rep.WriteJSON(f) },
		"csv":  func(f *os.File) error { return rep.WriteCSV(f) },
	} {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("robustness-%s.%s", name, ext)))
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
