package experiments

import (
	"fmt"

	"vdsms/internal/partition"
	"vdsms/internal/stats"
	"vdsms/internal/workload"
)

// membership runs the Table II protocol for one (u, d, scheme): each
// original short A[i] is used as a query against the edited shorts B[*]
// (the VS2 insertions) with the exact set-similarity membership test
// (no min-hash); B[j] is retrieved when Jaccard ≥ δ and correct when j = i.
func membership(l *Lab, u, d int, scheme partition.Scheme, delta float64) (precision, recall float64, err error) {
	dv, err := derive(l.BigVS2(), u, d, scheme)
	if err != nil {
		return 0, 0, err
	}
	edited := make(map[int][]uint64, len(dv.truth))
	for _, ins := range dv.truth {
		edited[ins.QueryID] = dv.streamIDs[ins.Begin:ins.End]
	}
	var retrieved, correct, found int
	for qid, qids := range dv.queryIDs {
		hit := false
		for bid, bids := range edited {
			if partition.Jaccard(qids, bids) >= delta {
				retrieved++
				if bid == qid {
					correct++
					hit = true
				}
			}
		}
		if hit {
			found++
		}
	}
	if retrieved > 0 {
		precision = float64(correct) / float64(retrieved)
	}
	recall = float64(found) / float64(len(dv.queryIDs))
	return precision, recall, nil
}

// Table2 reproduces Table II: membership-test precision and recall across
// the grid granularity u ∈ [2,7] and dimensionality d ∈ [3,7].
func Table2(l *Lab) (*stats.Table, error) {
	const delta = 0.5 // membership-retrieval threshold for edited copies
	tb := stats.NewTable("Table II: precision (p) and recall (r) with different u and d",
		"d", "u=2 p", "u=2 r", "u=3 p", "u=3 r", "u=4 p", "u=4 r",
		"u=5 p", "u=5 r", "u=6 p", "u=6 r", "u=7 p", "u=7 r")
	for d := 3; d <= 7; d++ {
		row := []any{d}
		for u := 2; u <= 7; u++ {
			p, r, err := membership(l, u, d, partition.GridPyramid, delta)
			if err != nil {
				return nil, err
			}
			row = append(row, p, r)
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// AblationPartition compares the partitioning schemes of Section III.A —
// plus the ordinal-rank signature of the related work [1], [9] — under the
// membership test at the default u=4, d=5: pyramid-only (2d cells) and
// ordinal (d! cells) have too few signatures and collapse precision;
// grid-only fractures copies under drift; grid–pyramid balances both.
func AblationPartition(l *Lab) (*stats.Table, error) {
	const delta = 0.5
	tb := stats.NewTable("Ablation: space partitioning scheme (u=4, d=5, membership test)",
		"scheme", "cells", "precision", "recall")
	for _, scheme := range []partition.Scheme{
		partition.Pyramid, partition.Ordinal, partition.Grid, partition.GridPyramid,
	} {
		p, r, err := membership(l, 4, 5, scheme, delta)
		if err != nil {
			return nil, err
		}
		pt, _ := partition.New(4, 5, scheme)
		tb.AddRow(scheme.String(), pt.NumCells(), p, r)
	}
	return tb, nil
}

// evalDetection runs the Bit/Sequential/Index detector on a derived
// workload and returns precision/recall (shared by Figs 7, 8, 11, 13).
func evalDetection(d *derived, k int, delta float64, wFrames int, order orderSel) (workload.Eval, error) {
	cfg := coreConfig(k, delta, wFrames, order)
	res, err := runEngine(cfg, d, 0)
	if err != nil {
		return workload.Eval{}, err
	}
	return res.Eval, nil
}

// orderSel distinguishes the two combination orders in table helpers.
type orderSel bool

const (
	seqOrder orderSel = false
	geoOrder orderSel = true
)

func (o orderSel) String() string {
	if o == geoOrder {
		return "geo"
	}
	return "seq"
}

// Fig7 reproduces Figure 7: precision vs K for δ ∈ {0.5, 0.7, 0.9} under
// both combination orders (Bit method, VS2).
func Fig7(l *Lab) (*stats.Table, error) { return prCurve(l, true) }

// Fig8 reproduces Figure 8: recall vs K, same configuration.
func Fig8(l *Lab) (*stats.Table, error) { return prCurve(l, false) }

func prCurve(l *Lab, precision bool) (*stats.Table, error) {
	title := "Figure 8: recall vs K (Bit, VS2)"
	if precision {
		title = "Figure 7: precision vs K (Bit, VS2)"
	}
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	deltas := []float64{0.5, 0.7, 0.9}
	headers := []string{"K"}
	for _, o := range []orderSel{seqOrder, geoOrder} {
		for _, d := range deltas {
			headers = append(headers, fmt.Sprintf("%s δ=%.1f", o, d))
		}
	}
	tb := stats.NewTable(title, headers...)
	wFrames := dv.cfg.KeyWindowFrames(5)
	for _, k := range []int{10, 50, 100, 200, 400, 800, 2000} {
		row := []any{k}
		for _, o := range []orderSel{seqOrder, geoOrder} {
			for _, delta := range deltas {
				ev, err := evalDetection(dv, k, delta, wFrames, o)
				if err != nil {
					return nil, err
				}
				if precision {
					row = append(row, ev.Precision)
				} else {
					row = append(row, ev.Recall)
				}
			}
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig11 reproduces Figure 11: precision and recall vs basic window size
// (Bit/Sequential/Index on VS2).
func Fig11(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Figure 11: precision/recall vs basic window size (VS2)",
		"w (s)", "precision", "recall")
	for _, wSec := range []float64{5, 10, 15, 20} {
		wFrames := dv.cfg.KeyWindowFrames(wSec)
		ev, err := evalDetection(dv, 800, 0.7, wFrames, seqOrder)
		if err != nil {
			return nil, err
		}
		tb.AddRow(wSec, ev.Precision, ev.Recall)
	}
	return tb, nil
}

// Fig13 reproduces Figure 13: the Bit method's precision/recall as its own
// similarity threshold δ varies (VS2) — the counterpart of the baselines'
// threshold sweeps in Figures 14 and 15.
func Fig13(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Figure 13: Bit method precision/recall vs δ (VS2)",
		"δ", "precision", "recall")
	wFrames := dv.cfg.KeyWindowFrames(5)
	for _, delta := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		ev, err := evalDetection(dv, 800, delta, wFrames, seqOrder)
		if err != nil {
			return nil, err
		}
		tb.AddRow(delta, ev.Precision, ev.Recall)
	}
	return tb, nil
}
