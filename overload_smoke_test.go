package vdsms

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"testing"
	"time"

	"vdsms/internal/mpeg"
	"vdsms/internal/perfobs"
	"vdsms/internal/vframe"
	"vdsms/internal/workload"
)

// The overload gate's scenario: six 12 s queries, each inserted once
// between 15 s gaps, at 4 key frames a second and 1 s basic windows — four
// frames a window, so level 2 keeps two decodes a window and level 3 one.
const (
	smokeW, smokeH = 96, 80
	smokeQueries   = 6
	smokeQuerySec  = 12.0
	smokeGapSec    = 15.0
	smokeKeyFPS    = 4.0
	smokeQuality   = 85
	smokeWinFrames = 4
)

// The controller's feed in the gate is a model of the work a window did
// instead of its wall-clock latency: decoded frames × costDecode +
// extracted frames × costExtract + costKernel. The constants are the stage
// means of full-fidelity passes of this scenario, measured once (go test
// without -race on a 2-CPU x86-64 host, the median of five warm passes:
// decode 4.5 µs and extract 0.54 µs a frame, the kernel 4.6 µs a window;
// a later rerun on the same host read 3.9, 0.32 and 2.9). The sampler
// still decides on the stream's real payload sizes and motion scores and
// the kernel matches the real cells, so level, steady p99, shed counts and
// recall are exact.
const (
	costDecode  = 4500 * time.Nanosecond
	costExtract = 540 * time.Nanosecond
	costKernel  = 4600 * time.Nanosecond
	// costFull is a full-fidelity window's modelled cost.
	costFull = smokeWinFrames*(costDecode+costExtract) + costKernel
)

// overloadScenario is the gate's workload: encoded queries and stream plus
// the key-frame position of every insertion.
type overloadScenario struct {
	queries [][]byte
	stream  []byte
	truth   []workload.Insertion
}

// buildOverloadScenario encodes the stream — gap, query, gap, …, query,
// gap — and each query alone, the queries on a second goroutine.
func buildOverloadScenario(t *testing.T) *overloadScenario {
	t.Helper()
	synth := func(seed int64, seconds float64) vframe.Source {
		return VideoOptions{Seconds: seconds, FPS: smokeKeyFPS, W: smokeW, H: smokeH, Seed: seed}.source()
	}
	encode := func(src vframe.Source) ([]byte, error) {
		var buf bytes.Buffer
		_, err := mpeg.EncodeSource(&buf, src, smokeQuality, 1)
		return buf.Bytes(), err
	}
	sc := &overloadScenario{queries: make([][]byte, smokeQueries)}
	var parts []vframe.Source
	frame := 0
	for i := range smokeQueries {
		parts = append(parts, synth(1001+int64(i), smokeGapSec), synth(2001+int64(i), smokeQuerySec))
		frame += int(smokeGapSec * smokeKeyFPS)
		end := frame + int(smokeQuerySec*smokeKeyFPS)
		sc.truth = append(sc.truth, workload.Insertion{QueryID: i + 1, Begin: frame, End: end})
		frame = end
	}
	parts = append(parts, synth(3001, smokeGapSec))
	var qerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range sc.queries {
			if sc.queries[i], qerr = encode(synth(2001+int64(i), smokeQuerySec)); qerr != nil {
				return
			}
		}
	}()
	stream, err := encode(vframe.Concat(parts...))
	<-done
	if err = cmp.Or(err, qerr); err != nil {
		t.Fatal(err)
	}
	sc.stream = stream
	return sc
}

// modelledCost prices each of d's windows by the work it did, read from
// d's shed counters: a window's frames less its decode sheds were decoded,
// those less its extract sheds extracted. Monitor never decodes past the
// window it fills, so every shed is counted in its own window.
func modelledCost(d *Detector) func(*perfobs.Span) time.Duration {
	var extShed, decShed int64
	return func(rec *perfobs.Span) time.Duration {
		ext, dec := d.ovl.extractShed.Load(), d.ovl.decodeShed.Load()
		decoded := int64(rec.EndFrame-rec.StartFrame) - (dec - decShed)
		extracted := decoded - (ext - extShed)
		extShed, decShed = ext, dec
		return time.Duration(decoded)*costDecode + time.Duration(extracted)*costExtract + costKernel
	}
}

// overloadPass is one monitored pass of the scenario.
type overloadPass struct {
	name    string
	budget  time.Duration
	o       OverloadStats
	matches []Match
	recall  float64
}

func (p overloadPass) String() string {
	return fmt.Sprintf("%-10s budget=%-9v level=%d transitions=%d steady-p99=%-9v extract-shed=%-3d decode-shed=%-3d matches=%d recall=%.2f",
		p.name, p.budget, p.o.Level, p.o.Transitions, p.o.RunP99, p.o.ExtractShed, p.o.DecodeShed, len(p.matches), p.recall)
}

// monitorScenario runs one pass: budget 0 leaves the controller off, any
// other budget arms it on the modelled cost, shedding when shed is set.
func monitorScenario(t *testing.T, sc *overloadScenario, name string, budget time.Duration, shed bool) overloadPass {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = 200
	cfg.Delta = 0.6
	cfg.WindowSec = smokeWinFrames / smokeKeyFPS
	cfg.KeyFPS = smokeKeyFPS
	cfg.RealTimeBudget = budget
	cfg.Shed = shed
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det.ovl.cost = modelledCost(det)
	for i, q := range sc.queries {
		if err := det.AddQuery(i+1, bytes.NewReader(q)); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := det.Monitor(bytes.NewReader(sc.stream))
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]workload.Position, len(matches))
	for i, m := range matches {
		reports[i] = workload.Position{QueryID: m.QueryID, P: int(math.Round(m.End.Seconds() * smokeKeyFPS))}
	}
	ev := workload.Evaluate(reports, sc.truth, smokeWinFrames)
	return overloadPass{name: name, budget: budget, o: det.Overload(), matches: matches, recall: ev.Recall}
}

// TestOverloadSmoke is the adaptive-ingest layer's gate, on the modelled
// window cost, so every number it logs is the same on every run and host:
// a full-fidelity pass must find every copy; an observe-only pass at 2×
// overload (a budget of half a full window's cost) must escalate, shed
// nothing and match the full pass byte for byte; a shed pass at 2× must
// reach decode shedding, hold its steady p99 inside the budget and keep
// half the copies. Shed passes at 1×, 1.5×, 3× and 4× log the rest of the
// level/recall curve.
func TestOverloadSmoke(t *testing.T) {
	sc := buildOverloadScenario(t)
	full := monitorScenario(t, sc, "full", 0, false)
	t.Log(full)
	if full.recall < 1 {
		t.Errorf("full-fidelity recall %.2f, want 1: the workload itself must be fully detectable", full.recall)
	}

	budget := costFull / 2
	observe := monitorScenario(t, sc, "observe-2x", budget, false)
	t.Log(observe)
	if observe.o.Level == 0 {
		t.Error("observe-only pass never escalated: the budget did not register as overload")
	}
	if observe.o.ExtractShed != 0 || observe.o.DecodeShed != 0 {
		t.Errorf("observe-only pass shed work (extract=%d decode=%d)", observe.o.ExtractShed, observe.o.DecodeShed)
	}
	identicalMatches(t, observe.matches, full.matches)

	for _, factor := range []float64{1, 1.5, 2, 3, 4} {
		budget := time.Duration(float64(costFull) / factor)
		p := monitorScenario(t, sc, fmt.Sprintf("shed-%gx", factor), budget, true)
		t.Log(p)
		if factor != 2 {
			continue
		}
		if p.o.Level < 2 {
			t.Errorf("shed pass settled at level %d: at 2× overload with decode dominating the window, extract shedding alone cannot bound the p99", p.o.Level)
		}
		if p.o.DecodeShed == 0 {
			t.Error("shed pass dropped no decodes")
		}
		if p.o.RunP99 > budget {
			t.Errorf("shed steady p99 %v exceeds the %v budget: shedding failed to bound latency", p.o.RunP99, budget)
		}
		if p.recall < 0.5 {
			t.Errorf("shed recall %.2f below the 0.5 floor", p.recall)
		}
	}
}
