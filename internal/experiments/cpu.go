package experiments

import (
	"vdsms/internal/core"
	"vdsms/internal/partition"
	"vdsms/internal/stats"
)

// coreConfig assembles the engine configuration used throughout the CPU
// and accuracy experiments (Bit/index defaults unless overridden).
func coreConfig(k int, delta float64, wFrames int, order orderSel) core.Config {
	cfg := core.Config{
		K: k, Seed: 1, Delta: delta, Lambda: 2, WindowFrames: wFrames,
		Method: core.Bit, UseIndex: true, Order: core.Sequential,
	}
	if order == geoOrder {
		cfg.Order = core.Geometric
	}
	return cfg
}

// ops is a run's matching work in elementary operations, the clock-free
// twin of its CPU time: the probes' value comparisons, K positions per
// sketch combine or compare, and one word per 64 positions of each of a
// signature's two planes per OR or test. Under the Bit method
// SketchCompares counts the scan prober's queries, whose positions
// ProbeComparisons already holds. Sketching the windows (K hashes a key
// frame, whatever the method, order or m) is fingerprinting, not matching,
// and is left out as the baselines' feature extraction is.
func ops(cfg core.Config, s core.Stats) int64 {
	k := int64(cfg.K)
	if cfg.Method == core.Bit {
		return s.ProbeComparisons + 2*((k+63)/64)*(s.SigOrs+s.SigTests)
	}
	return s.ProbeComparisons + k*(s.SketchCombines+s.SketchCompares)
}

// timeAndOps names a time column and the ops column beside it for each
// series.
func timeAndOps(lead []string, series ...string) []string {
	for _, s := range series {
		lead = append(lead, s, s+" ops")
	}
	return lead
}

// Fig6 reproduces Figure 6: CPU time vs the number of hash functions K for
// the Sketch and Bit representations under both combination orders (query
// index maintained for all, VS1 stream), each beside its ops.
func Fig6(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS1(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	tb := stats.NewTable("Figure 6: CPU time vs K (VS1, index on)",
		timeAndOps([]string{"K"}, "sketch-seq", "sketch-geo", "bit-seq", "bit-geo")...)
	for _, k := range []int{100, 200, 400, 800, 1600, 3000} {
		row := []any{k}
		for _, method := range []core.Method{core.Sketch, core.Bit} {
			for _, order := range []orderSel{seqOrder, geoOrder} {
				cfg := coreConfig(k, 0.7, wFrames, order)
				cfg.Method = method
				res, err := runEngine(cfg, dv, 0)
				if err != nil {
					return nil, err
				}
				row = append(row, res.Elapsed, res.Ops)
			}
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig9 reproduces Figure 9: CPU time vs the number of continuous queries m
// for {Sketch, Bit} × {Index, NoIndex} under both orders (VS1 with up to
// 200 queries), each beside its ops.
func Fig9(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.BigVS1(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	tb := stats.NewTable("Figure 9: CPU time vs number of queries m (VS1)",
		timeAndOps([]string{"order", "m"}, "sketch-index", "sketch-noindex", "bit-index", "bit-noindex")...)
	total := len(dv.queryIDs)
	for _, order := range []orderSel{seqOrder, geoOrder} {
		for _, m := range []int{10, 25, 50, 100, 200} {
			if m > total {
				m = total
			}
			row := []any{order.String(), m}
			for _, method := range []core.Method{core.Sketch, core.Bit} {
				for _, useIndex := range []bool{true, false} {
					cfg := coreConfig(800, 0.7, wFrames, order)
					cfg.Method = method
					cfg.UseIndex = useIndex
					res, err := runEngine(cfg, dv, m)
					if err != nil {
						return nil, err
					}
					row = append(row, res.Elapsed, res.Ops)
				}
			}
			tb.AddRow(row...)
			if m == total {
				break
			}
		}
	}
	return tb, nil
}

// Fig10a reproduces Figure 10(a): average number of bit signatures
// maintained vs the similarity threshold δ (BitIndex, Sequential, VS2).
func Fig10a(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	tb := stats.NewTable("Figure 10(a): avg bit signatures vs δ (VS2, BitIndex sequential)",
		"δ", "avg signatures", "memory (bytes, 2K bits each)")
	for _, delta := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		res, err := runEngine(coreConfig(800, delta, wFrames, seqOrder), dv, 0)
		if err != nil {
			return nil, err
		}
		n := res.Stats.AvgSignatures()
		tb.AddRow(delta, n, int(n*2*800/8))
	}
	return tb, nil
}

// Fig10b reproduces Figure 10(b): average number of bit signatures vs the
// basic window size (VS2).
func Fig10b(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("Figure 10(b): avg bit signatures vs basic window size (VS2)",
		"w (s)", "avg signatures", "memory (bytes)")
	for _, wSec := range []float64{5, 10, 15, 20} {
		wFrames := dv.cfg.KeyWindowFrames(wSec)
		res, err := runEngine(coreConfig(800, 0.7, wFrames, seqOrder), dv, 0)
		if err != nil {
			return nil, err
		}
		n := res.Stats.AvgSignatures()
		tb.AddRow(wSec, n, int(n*2*800/8))
	}
	return tb, nil
}

// AblationPrune quantifies the Lemma 2 prune (Section V.B) across δ: CPU
// time, probe work and live signatures with the prune enabled vs disabled.
// Accuracy never changes (the prune is lossless); the work saved grows with
// δ because the bound K(1−δ) tightens. Much of the candidate expiry in this
// engine already comes from the relatedness intersection, so the prune's
// marginal effect here is the probe-side R_L reduction.
func AblationPrune(l *Lab) (*stats.Table, error) {
	dv, err := derive(l.VS2(), 4, 5, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	wFrames := dv.cfg.KeyWindowFrames(5)
	tb := stats.NewTable("Ablation: Lemma 2 pruning (VS2, BitIndex sequential)",
		"δ", "prune", "time", "avg signatures", "sig tests", "probe cmps", "precision", "recall")
	for _, delta := range []float64{0.5, 0.7, 0.9} {
		for _, disable := range []bool{false, true} {
			cfg := coreConfig(800, delta, wFrames, seqOrder)
			cfg.DisablePrune = disable
			res, err := runEngine(cfg, dv, 0)
			if err != nil {
				return nil, err
			}
			label := "on"
			if disable {
				label = "off"
			}
			tb.AddRow(delta, label, res.Elapsed, res.Stats.AvgSignatures(),
				res.Stats.SigTests, res.Stats.ProbeComparisons,
				res.Eval.Precision, res.Eval.Recall)
		}
	}
	return tb, nil
}
