package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"vdsms"
	"vdsms/internal/stats"
	"vdsms/internal/workload"
)

// Overload measures the adaptive-ingest layer (beyond the paper): a stream
// with known copy insertions is monitored three times — once with an
// unreachable budget to calibrate the sustainable per-window cost, once at
// half that cost ("2× sustainable ingest") with the controller observing
// only, and once with shedding enabled. The shed run must bring the
// steady-state p99 back under the budget; the price is the recall loss the
// table quantifies. Wall-clock timing experiment for real hosts: absolute
// numbers vary by machine and run, the shape (bounded p99, small recall
// loss) is the result. The exact, gated version of this sweep runs on a
// modelled window cost (TestOverloadSmoke in the root package).
func Overload(l *Lab) (*stats.Table, error) {
	rows, err := overloadRun(l.opt.Seed)
	if err != nil {
		return nil, err
	}
	return overloadTable(rows), nil
}

// overloadTable renders a sweep's rows as the experiment's table.
func overloadTable(rows []overloadRow) *stats.Table {
	tb := stats.NewTable("Overload: shed level vs steady p99 vs recall at 2× sustainable ingest",
		"mode", "budget", "level", "steady-p99", "windows", "shed-windows",
		"extract-shed", "decode-shed", "matches", "recall", "recall-loss")
	for _, r := range rows {
		tb.AddRow(r.Mode,
			time.Duration(r.BudgetSec*float64(time.Second)).Round(time.Microsecond),
			r.Level,
			time.Duration(r.SteadyP99Sec*float64(time.Second)).Round(time.Microsecond),
			r.Windows, r.ShedWindows, r.ExtractShed, r.DecodeShed,
			r.Matches,
			fmt.Sprintf("%.2f", r.Recall),
			fmt.Sprintf("%.1f%%", r.RecallLossPct))
	}
	return tb
}

// overloadRow is one monitored pass of the overload sweep.
type overloadRow struct {
	// Mode is "calibrate" (unreachable budget), "observe" (tight budget,
	// shedding disabled) or "shed" (tight budget, shedding enabled).
	Mode string
	// BudgetSec is the per-window real-time budget this pass ran under.
	BudgetSec float64
	// Level is the shed level the controller settled at.
	Level int
	// SteadyP99Sec is the p99 window latency since the last level change.
	SteadyP99Sec float64
	// Windows / ShedWindows count observed windows and those at level > 0.
	Windows     int64
	ShedWindows int64
	// ExtractShed / DecodeShed count key frames dropped per stage.
	ExtractShed int64
	DecodeShed  int64
	// Matches / Recall score the pass against the planted insertions;
	// RecallLossPct is relative to the calibration pass.
	Matches       int
	Recall        float64
	RecallLossPct float64
}

// Scenario geometry. Frames are large and the query count small so the
// front end (decode + extract) dominates window cost (~95% measured) —
// the regime where shedding has leverage; the matching kernel itself is
// never shed. Four key frames per basic window give the per-window decode
// budget room to act: level 2 keeps 2 of 4 decodes, level 3 keeps 1.
const (
	ovlW, ovlH   = 384, 320
	ovlQueries   = 6
	ovlQuerySec  = 12.0
	ovlGapSec    = 15.0
	ovlKeyFPS    = 4.0
	ovlWindowSec = 1.0
	ovlQuality   = 85
)

// overloadScenario is the built workload: encoded queries and stream plus
// key-frame ground truth.
type overloadScenario struct {
	queries map[int][]byte
	stream  []byte
	truth   []workload.Insertion
}

func synthMVC(seed int64, seconds float64) ([]byte, error) {
	var buf bytes.Buffer
	err := vdsms.Synthesize(&buf, vdsms.VideoOptions{
		Seconds: seconds, FPS: ovlKeyFPS, W: ovlW, H: ovlH,
		Seed: seed, Quality: ovlQuality, GOP: 1,
	})
	return buf.Bytes(), err
}

// buildOverloadScenario composes gap/query/gap/.../gap with every query
// inserted once at a known key-frame position.
func buildOverloadScenario(seed int64) (*overloadScenario, error) {
	sc := &overloadScenario{queries: make(map[int][]byte)}
	var parts []io.Reader
	frame := 0
	gapFrames := int(ovlGapSec * ovlKeyFPS)
	qFrames := int(ovlQuerySec * ovlKeyFPS)
	for i := 0; i < ovlQueries; i++ {
		gap, err := synthMVC(seed+1000+int64(i), ovlGapSec)
		if err != nil {
			return nil, err
		}
		q, err := synthMVC(seed+2000+int64(i), ovlQuerySec)
		if err != nil {
			return nil, err
		}
		sc.queries[i+1] = q
		parts = append(parts, bytes.NewReader(gap), bytes.NewReader(q))
		frame += gapFrames
		sc.truth = append(sc.truth, workload.Insertion{
			QueryID: i + 1, Begin: frame, End: frame + qFrames,
		})
		frame += qFrames
	}
	tail, err := synthMVC(seed+3000, ovlGapSec)
	if err != nil {
		return nil, err
	}
	parts = append(parts, bytes.NewReader(tail))
	var buf bytes.Buffer
	if err := vdsms.ComposeStream(&buf, ovlQuality, 1, parts...); err != nil {
		return nil, err
	}
	sc.stream = buf.Bytes()
	return sc, nil
}

func overloadConfig() vdsms.Config {
	cfg := vdsms.DefaultConfig()
	cfg.K = 200
	cfg.Delta = 0.6
	cfg.WindowSec = ovlWindowSec
	cfg.KeyFPS = ovlKeyFPS
	return cfg
}

// monitorOverload runs one pass over the scenario and scores it.
func monitorOverload(sc *overloadScenario, budget time.Duration, shed bool) (overloadRow, vdsms.OverloadStats, error) {
	cfg := overloadConfig()
	cfg.RealTimeBudget = budget
	cfg.Shed = shed
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		return overloadRow{}, vdsms.OverloadStats{}, err
	}
	for id := 1; id <= ovlQueries; id++ {
		if err := det.AddQuery(id, bytes.NewReader(sc.queries[id])); err != nil {
			return overloadRow{}, vdsms.OverloadStats{}, err
		}
	}
	matches, err := det.Monitor(bytes.NewReader(sc.stream))
	if err != nil {
		return overloadRow{}, vdsms.OverloadStats{}, err
	}
	reports := make([]workload.Position, 0, len(matches))
	for _, m := range matches {
		reports = append(reports, workload.Position{
			QueryID: m.QueryID,
			P:       int(math.Round(m.End.Seconds() * ovlKeyFPS)),
		})
	}
	ev := workload.Evaluate(reports, sc.truth, int(ovlWindowSec*ovlKeyFPS))
	o := det.Overload()
	row := overloadRow{
		BudgetSec:    budget.Seconds(),
		Level:        o.Level,
		SteadyP99Sec: o.RunP99.Seconds(),
		Windows:      o.Observed,
		ShedWindows:  o.ShedWindows,
		ExtractShed:  o.ExtractShed,
		DecodeShed:   o.DecodeShed,
		Matches:      len(matches),
		Recall:       ev.Recall,
	}
	return row, o, nil
}

// overloadRun executes the three-pass sweep: calibrate the sustainable
// per-window cost, then rerun at half of it with shedding off and on.
func overloadRun(seed int64) ([]overloadRow, error) {
	sc, err := buildOverloadScenario(seed)
	if err != nil {
		return nil, err
	}

	// Warm-up: one untimed pass so the calibration below measures the
	// steady-state cost, not allocator and cache warm-up (measured: a cold
	// first pass reports a p99 roughly 2× the warm one, which would halve
	// the effective overload factor of the whole sweep).
	if _, _, err := monitorOverload(sc, 0, false); err != nil {
		return nil, err
	}

	// Calibration: an unreachable budget keeps the loop observing without
	// ever shedding; its steady p99 is the sustainable per-window cost.
	// Two passes, keeping the quieter one — wall-clock noise (scheduler
	// stalls, co-tenant CPU contention) only ever inflates the p99, and an
	// inflated calibration makes the derived budget loose, which parks the
	// controller on a level boundary instead of demonstrating overload.
	calib, _, err := monitorOverload(sc, time.Hour, true)
	if err != nil {
		return nil, err
	}
	calib2, _, err := monitorOverload(sc, time.Hour, true)
	if err != nil {
		return nil, err
	}
	if calib2.SteadyP99Sec < calib.SteadyP99Sec {
		calib = calib2
	}
	calib.Mode = "calibrate"
	if calib.Level != 0 || calib.ExtractShed != 0 || calib.DecodeShed != 0 {
		return nil, fmt.Errorf("experiments: calibration pass shed work: %+v", calib)
	}

	// "2× sustainable ingest": each window must now finish in half the
	// time the calibrated pipeline needs, as if frames arrived twice as
	// fast as this machine can absorb at full fidelity.
	budget := time.Duration(calib.SteadyP99Sec * float64(time.Second) / 2)
	if budget < time.Microsecond {
		budget = time.Microsecond
	}

	observe, _, err := monitorOverload(sc, budget, false)
	if err != nil {
		return nil, err
	}
	observe.Mode = "observe"
	observe.RecallLossPct = recallLossPct(calib.Recall, observe.Recall)

	shed, _, err := monitorOverload(sc, budget, true)
	if err != nil {
		return nil, err
	}
	shed.Mode = "shed"
	shed.RecallLossPct = recallLossPct(calib.Recall, shed.Recall)

	return []overloadRow{calib, observe, shed}, nil
}

func recallLossPct(base, got float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - got) / base * 100
}
