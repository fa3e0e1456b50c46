package experiments

import (
	"fmt"
	"sort"
	"time"

	"vdsms/internal/baseline"
	"vdsms/internal/partition"
	"vdsms/internal/stats"
)

// fullRateGOP is the I-frame interval assumed when expanding key-frame
// features to full frame rate: 2 key frames/s × 15 ≈ NTSC 29.97 fps.
const fullRateGOP = 15

// upsample repeats each key-frame feature GOP times, reconstructing the
// full-rate feature stream the frame-by-frame baselines of [1] and [6]
// must process (they have no notion of key frames; only the sketch method
// exploits the compressed-domain key-frame structure).
func upsample(feats [][]float64, factor int) [][]float64 {
	out := make([][]float64, 0, len(feats)*factor)
	for _, f := range feats {
		for i := 0; i < factor; i++ {
			out = append(out, f)
		}
	}
	return out
}

// Fig12 reproduces Figure 12: CPU time of the proposed Bit method vs the
// Seq [1] and Warp [6] baselines across basic window sizes, on the VS2
// stream, each beside its ops. The baselines slide a query-length window
// frame by frame over the full-rate stream with the basic window as gap;
// the sketch method touches only key frames. Warp's band r scales its cost
// further. A baseline's ops are d per frame distance, the L1 over the
// d-dimensional features.
func Fig12(l *Lab) (*stats.Table, error) {
	const d = 5
	dv, err := derive(l.VS2(), 4, d, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	// Expand features to full frame rate for the baselines.
	streamFull := upsample(dv.streamFeats, fullRateGOP)
	queryFull := make(map[int][][]float64, len(dv.queryFeats))
	qids := make([]int, 0, len(dv.queryFeats))
	for qid, f := range dv.queryFeats {
		queryFull[qid] = upsample(f, fullRateGOP)
		qids = append(qids, qid)
	}
	sort.Ints(qids)

	timeBaseline := func(kind baseline.Kind, gapFull, band int) (time.Duration, int64, error) {
		m, err := baseline.New(baseline.Config{Kind: kind, Threshold: 0.2, Gap: gapFull, Band: band})
		if err != nil {
			return 0, 0, err
		}
		for _, qid := range qids {
			if err := m.AddQuery(qid, queryFull[qid]); err != nil {
				return 0, 0, err
			}
		}
		elapsed := stats.Time(func() {
			for _, f := range streamFull {
				m.Push(f)
			}
		})
		return elapsed, d * m.FrameDistances, nil
	}

	tb := stats.NewTable("Figure 12: CPU time vs basic window size (VS2; baselines at full frame rate)",
		timeAndOps([]string{"w (s)"}, "bit", "seq[1]", "warp r=30", "warp r=60")...)
	for _, wSec := range []float64{5, 10, 15, 20} {
		wFrames := dv.cfg.KeyWindowFrames(wSec)
		res, err := runEngine(coreConfig(800, 0.7, wFrames, seqOrder), dv, 0)
		if err != nil {
			return nil, err
		}
		row := []any{wSec, res.Elapsed, res.Ops}
		gapFull := wFrames * fullRateGOP
		// Seq, then Warp at band widths in full-rate frames: 1 s and 2 s
		// of warping slack.
		for _, b := range []struct {
			kind baseline.Kind
			band int
		}{{baseline.Seq, 0}, {baseline.Warp, 30}, {baseline.Warp, 60}} {
			elapsed, n, err := timeBaseline(b.kind, gapFull, b.band)
			if err != nil {
				return nil, err
			}
			row = append(row, elapsed, n)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig14 reproduces Figure 14: the Seq baseline's precision/recall as its
// distance threshold varies, on the temporally reordered VS2 stream. The
// paper's finding: before precision reaches 50%, recall falls below 30%.
func Fig14(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	tb := stats.NewTable("Figure 14: Seq baseline precision/recall vs distance threshold (VS2)",
		"threshold", "precision", "recall")
	for _, th := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6} {
		ev, err := runBaseline(baseline.Config{
			Kind: baseline.Seq, Threshold: th, Gap: wFrames}, dv)
		if err != nil {
			return nil, err
		}
		tb.AddRow(th, ev.Precision, ev.Recall)
	}
	return tb, nil
}

// Fig15 reproduces Figure 15: the Warp baseline's precision/recall across
// thresholds for several warping band widths r, on VS2.
func Fig15(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	bands := []int{2, 6, 10}
	headers := []string{"threshold"}
	for _, r := range bands {
		headers = append(headers, fmt.Sprintf("p r=%d", r), fmt.Sprintf("r r=%d", r))
	}
	tb := stats.NewTable("Figure 15: Warp baseline precision/recall vs threshold (VS2)", headers...)
	for _, th := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6} {
		row := []any{th}
		for _, r := range bands {
			ev, err := runBaseline(baseline.Config{
				Kind: baseline.Warp, Threshold: th, Gap: wFrames, Band: r}, dv)
			if err != nil {
				return nil, err
			}
			row = append(row, ev.Precision, ev.Recall)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}
