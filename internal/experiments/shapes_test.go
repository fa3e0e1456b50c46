package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"vdsms/internal/stats"
)

// One test per registry entry asserts the shape EXPERIMENTS.md states for
// it, on the numbers the figure code prints: ops, signature counts,
// precision and recall — never a time column. Each runs at the smallest
// scale at which the reproduction shows its shape: 0.25 (6 shorts, a
// 50-query m sweep, a 25-video Table II corpus) or 0.5, twice that.
const (
	quarter = 0.25
	half    = 0.5
)

// labs are the package's shared labs, seeded as vcdbench's default. Tests
// that read the same workloads name the same lab and take turns on it, so
// each workload is built once; tests on different labs run side by side.
var labs = struct {
	sync.Mutex
	m map[string]*heldLab
}{m: map[string]*heldLab{}}

type heldLab struct {
	sync.Mutex
	*Lab
}

// lab marks t parallel and returns the lab named name at scale, held by t
// until it ends.
func lab(t *testing.T, name string, scale float64) *Lab {
	t.Parallel()
	key := fmt.Sprintf("%s@%g", name, scale)
	labs.Lock()
	l := labs.m[key]
	if l == nil {
		l = &heldLab{Lab: NewLab(Options{Scale: scale})}
		labs.m[key] = l
	}
	labs.Unlock()
	l.Lock()
	t.Cleanup(l.Unlock)
	return l.Lab
}

// table runs fig on l and logs what it printed.
func table(t *testing.T, fig func(*Lab) (*stats.Table, error), l *Lab) *stats.Table {
	t.Helper()
	tb, err := fig(l)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scale %g\n%s", l.opt.Scale, tb)
	return tb
}

// nums returns the cells under header as numbers; a table without the
// column or without rows fails t.
func nums(t *testing.T, tb *stats.Table, header string) []float64 {
	t.Helper()
	cells := tb.Column(header)
	if len(cells) == 0 {
		t.Fatalf("%q has no column %q or no rows", tb.Title, header)
	}
	out := make([]float64, len(cells))
	for i, c := range cells {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			t.Fatalf("%q column %q row %d: %v", tb.Title, header, i, err)
		}
		out[i] = v
	}
	return out
}

// each reports whether every neighbouring pair (a, b) of xs satisfies ok.
func each(xs []float64, ok func(a, b float64) bool) bool {
	for i := 1; i < len(xs); i++ {
		if !ok(xs[i-1], xs[i]) {
			return false
		}
	}
	return true
}

func rises(a, b float64) bool      { return b > a }
func falls(a, b float64) bool      { return b < a }
func neverRises(a, b float64) bool { return b <= a }
func neverFalls(a, b float64) bool { return b >= a }

// TestTable2 — precision is lowest at the coarsest partition and never
// falls as u or d grow; recall is lowest at the finest grid, u=7, where it
// falls with d.
func TestTable2(t *testing.T) {
	tb := table(t, Table2, lab(t, "table2", quarter))
	var p, r [][]float64 // [u-2][d-3]
	for u := 2; u <= 7; u++ {
		p = append(p, nums(t, tb, fmt.Sprintf("u=%d p", u)))
		r = append(r, nums(t, tb, fmt.Sprintf("u=%d r", u)))
	}
	for i := range p {
		if !each(p[i], neverFalls) {
			t.Errorf("precision at u=%d falls as d grows: %v", i+2, p[i])
		}
	}
	for d := range p[0] {
		var pu, ru []float64
		for u := range p {
			pu, ru = append(pu, p[u][d]), append(ru, r[u][d])
		}
		if !each(pu, neverFalls) {
			t.Errorf("precision at d=%d falls as u grows: %v", d+3, pu)
		}
		for u, x := range ru {
			if x < ru[len(ru)-1] {
				t.Errorf("recall at d=%d is lower at u=%d (%.3f) than at u=7 (%.3f)", d+3, u+2, x, ru[len(ru)-1])
			}
		}
	}
	if p[0][0] >= 1 {
		t.Errorf("precision at u=2, d=3 is %.3f: the coarsest partition shows no collisions", p[0][0])
	}
	if fine := r[len(r)-1]; !each(fine, neverRises) || fine[len(fine)-1] >= 1 {
		t.Errorf("recall at u=7 %v: want it falling with d and below 1 at d=7", fine)
	}
}

// TestFig6 — CPU time vs K: ops grow linearly in K, and Bit does less
// work than Sketch at every K. (The muted Sequential/Geometric split is
// the figure's ✗ and is not asserted.)
func TestFig6(t *testing.T) {
	tb := table(t, Fig6, lab(t, "vs1", quarter))
	ks := nums(t, tb, "K")
	series := []string{"sketch-seq", "sketch-geo", "bit-seq", "bit-geo"}
	ops := map[string][]float64{}
	for _, s := range series {
		ops[s] = nums(t, tb, s+" ops")
	}
	t.Run("ops-linear-in-K", func(t *testing.T) {
		for _, s := range series {
			lo, hi := ops[s][0]/ks[0], ops[s][0]/ks[0]
			for i, k := range ks {
				lo, hi = min(lo, ops[s][i]/k), max(hi, ops[s][i]/k)
			}
			// Measured: the ops per hash function stay within 6 % of each
			// other over K = 100…3000 in every series.
			if hi > 1.15*lo {
				t.Errorf("%s: ops per K range %.1f…%.1f, not linear in K", s, lo, hi)
			}
		}
	})
	t.Run("bit-below-sketch", func(t *testing.T) {
		for _, o := range []string{"seq", "geo"} {
			for i, k := range ks {
				if b, s := ops["bit-"+o][i], ops["sketch-"+o][i]; b >= s {
					t.Errorf("K=%v %s: bit ops %v not below sketch ops %v", k, o, b, s)
				}
			}
		}
	})
}

// TestFig7 — precision saturates at 1.0: every reported match is right at
// every K, δ and order (the paper's low-K dip needs cross-video
// similarity this corpus lacks).
func TestFig7(t *testing.T) {
	l := lab(t, "vs2", half)
	prec, rec := table(t, Fig7, l), table(t, Fig8, l)
	for _, h := range prec.Headers[1:] {
		p, r := nums(t, prec, h), nums(t, rec, h)
		for i := range p {
			if r[i] > 0 && p[i] != 1 {
				t.Errorf("%s row %d: precision %.3f at recall %.3f", h, i, p[i], r[i])
			}
		}
	}
}

// TestFig8 — recall vs K: ordered by δ, flat once K is large, and lower in
// Geometric order than in Sequential everywhere.
func TestFig8(t *testing.T) {
	l := lab(t, "vs2", half)
	tb := table(t, Fig8, l)
	ks := nums(t, tb, "K")
	deltas := []string{"0.5", "0.7", "0.9"}
	rec := map[string][]float64{}
	for _, o := range []string{"seq", "geo"} {
		for _, d := range deltas {
			rec[o+d] = nums(t, tb, fmt.Sprintf("%s δ=%s", o, d))
		}
	}
	t.Run("ordered-by-delta", func(t *testing.T) {
		for _, o := range []string{"seq", "geo"} {
			for i, k := range ks {
				byDelta := []float64{rec[o+"0.5"][i], rec[o+"0.7"][i], rec[o+"0.9"][i]}
				if !each(byDelta, neverRises) || byDelta[0] == byDelta[2] {
					t.Errorf("K=%v %s: recall at δ=0.5/0.7/0.9 is %v", k, o, byDelta)
				}
			}
		}
	})
	t.Run("flat-in-large-K", func(t *testing.T) {
		// From K=800 to K=2000 no series moves by more than one insertion.
		one := 1/float64(len(l.VS2().Truth)) + 0.001
		last := len(ks) - 1
		for key, r := range rec {
			if d := r[last] - r[last-1]; d > one || d < -one {
				t.Errorf("%s: recall %.3f at K=%v, %.3f at K=%v", key, r[last-1], ks[last-1], r[last], ks[last])
			}
		}
	})
	t.Run("geometric-below-sequential", func(t *testing.T) {
		for _, d := range deltas {
			for i, k := range ks {
				if g, s := rec["geo"+d][i], rec["seq"+d][i]; g >= s {
					t.Errorf("K=%v δ=%s: geometric recall %.3f not below sequential %.3f", k, d, g, s)
				}
			}
		}
	})
}

// TestFig9 — CPU time vs m: the index makes work nearly flat in m, BitIndex
// does the least work everywhere, and in Geometric order SketchIndex does
// less than BitNoIndex.
func TestFig9(t *testing.T) {
	tb := table(t, Fig9, lab(t, "m-sweep", quarter))
	orders, ms := tb.Column("order"), nums(t, tb, "m")
	ops := map[string][]float64{}
	for _, s := range []string{"sketch-index", "sketch-noindex", "bit-index", "bit-noindex"} {
		ops[s] = nums(t, tb, s+" ops")
	}
	rows := func(order string) []int {
		var out []int
		for i, o := range orders {
			if o == order {
				out = append(out, i)
			}
		}
		return out
	}
	t.Run("index-flat-in-m", func(t *testing.T) {
		for _, o := range []string{"seq", "geo"} {
			rs := rows(o)
			first, last := rs[0], rs[len(rs)-1]
			slope := func(s string) float64 {
				return (ops[s][last] - ops[s][first]) / (ms[last] - ms[first])
			}
			for _, method := range []string{"sketch", "bit"} {
				// Measured: a query added costs the scan 14–24× the ops it
				// costs the index.
				idx, scan := slope(method+"-index"), slope(method+"-noindex")
				if scan < 10*idx {
					t.Errorf("%s %s: ops per added query %.0f without the index, %.0f with it", o, method, scan, idx)
				}
			}
		}
	})
	t.Run("bit-index-least-work", func(t *testing.T) {
		for i, m := range ms {
			for s, col := range ops {
				if s != "bit-index" && col[i] <= ops["bit-index"][i] {
					t.Errorf("%s m=%v: %s ops %v not above bit-index %v", orders[i], m, s, col[i], ops["bit-index"][i])
				}
			}
		}
	})
	t.Run("sketch-index-below-bit-noindex-geometric", func(t *testing.T) {
		for _, i := range rows("geo") {
			if s, b := ops["sketch-index"][i], ops["bit-noindex"][i]; s >= b {
				t.Errorf("geo m=%v: sketch-index ops %v not below bit-noindex %v", ms[i], s, b)
			}
		}
	})
}

// TestFig10a — the average number of live bit signatures falls as δ rises.
func TestFig10a(t *testing.T) {
	tb := table(t, Fig10a, lab(t, "vs2", half))
	if n := nums(t, tb, "avg signatures"); !each(n, falls) {
		t.Errorf("avg signatures over δ %v: not strictly falling", n)
	}
}

// TestFig10b — the average number of live bit signatures falls as the
// basic window grows.
func TestFig10b(t *testing.T) {
	tb := table(t, Fig10b, lab(t, "vs2", quarter))
	if n := nums(t, tb, "avg signatures"); !each(n, falls) {
		t.Errorf("avg signatures over w %v: not strictly falling", n)
	}
}

// TestFig11 — recall falls steeply as the basic window grows, and
// precision never rises with it.
func TestFig11(t *testing.T) {
	tb := table(t, Fig11, lab(t, "vs2", quarter))
	if r := nums(t, tb, "recall"); !each(r, falls) || r[len(r)-1] > r[0]/4 {
		t.Errorf("recall over w %v: want strictly falling, to under a quarter", r)
	}
	if p := nums(t, tb, "precision"); !each(p, neverRises) {
		t.Errorf("precision over w %v rises", p)
	}
}

// TestFig12 — CPU time vs w against the baselines: Bit does the least
// work at every w, Warp's grows with its band and dwarfs Seq's, and both
// baselines' work falls as w grows.
func TestFig12(t *testing.T) {
	tb := table(t, Fig12, lab(t, "vs2", quarter))
	ws := nums(t, tb, "w (s)")
	series := []string{"bit", "seq[1]", "warp r=30", "warp r=60"}
	ops := map[string][]float64{}
	for _, s := range series {
		ops[s] = nums(t, tb, s+" ops")
	}
	t.Run("bit-least-work", func(t *testing.T) {
		for i, w := range ws {
			for _, s := range series[1:] {
				if ops["bit"][i] >= ops[s][i] {
					t.Errorf("w=%v: bit ops %v not below %s ops %v", w, ops["bit"][i], s, ops[s][i])
				}
			}
		}
	})
	t.Run("warp-grows-with-r-and-dwarfs", func(t *testing.T) {
		// Measured: Warp at r=30 does ≈60× Seq's work.
		for i, w := range ws {
			if seq, w30, w60 := ops["seq[1]"][i], ops["warp r=30"][i], ops["warp r=60"][i]; w30 < 10*seq || w60 <= w30 {
				t.Errorf("w=%v: seq %v, warp r=30 %v, r=60 %v ops", w, seq, w30, w60)
			}
		}
	})
	t.Run("baselines-fall-with-w", func(t *testing.T) {
		for _, s := range series[1:] {
			if !each(ops[s], falls) {
				t.Errorf("%s ops over w %v: not strictly falling", s, ops[s])
			}
		}
	})
}

// TestFig13 — the Bit method keeps precision 1.0 at every δ and a recall
// plateau through δ=0.6, decaying only at aggressive thresholds.
func TestFig13(t *testing.T) {
	tb := table(t, Fig13, lab(t, "vs2", half))
	deltas, p, r := nums(t, tb, "δ"), nums(t, tb, "precision"), nums(t, tb, "recall")
	if !each(r, neverRises) || r[len(r)-1] > 0.25 {
		t.Errorf("recall over δ %v: want never rising, to at most 0.25 at δ=0.9", r)
	}
	for i, d := range deltas {
		if p[i] != 1 {
			t.Errorf("δ=%v: precision %.3f", d, p[i])
		}
		if d <= 0.6 && r[i] < 0.9 {
			t.Errorf("δ=%v: recall %.3f below the plateau's 0.9", d, r[i])
		}
	}
}

// TestFig14 — the Seq baseline's failure mode on reordered copies: where
// its precision reaches 50 %, its recall is under 30 %, and it finds most
// copies only at a precision under 50 %.
func TestFig14(t *testing.T) {
	tb := table(t, Fig14, lab(t, "vs2", quarter))
	ths, p, r := nums(t, tb, "threshold"), nums(t, tb, "precision"), nums(t, tb, "recall")
	var precise, found bool
	for i, th := range ths {
		if p[i] >= 0.5 {
			precise = true
			if r[i] >= 0.3 {
				t.Errorf("threshold %v: recall %.3f at precision %.3f", th, r[i], p[i])
			}
		}
		if r[i] >= 0.5 {
			found = true
			if p[i] >= 0.5 {
				t.Errorf("threshold %v: precision %.3f at recall %.3f", th, p[i], r[i])
			}
		}
	}
	if !precise || !found {
		t.Errorf("no threshold reaches precision 0.5 (%v) or recall 0.5 (%v): the trade-off is not shown", precise, found)
	}
}

// TestFig15 — the Warp baseline: a wider band never loses recall and gains
// it at threshold 1.2, but full recall costs precision under 0.3 at every
// band.
func TestFig15(t *testing.T) {
	tb := table(t, Fig15, lab(t, "vs2", half))
	ths := nums(t, tb, "threshold")
	var p, r [][]float64 // [band][threshold]
	for _, band := range []int{2, 6, 10} {
		p = append(p, nums(t, tb, fmt.Sprintf("p r=%d", band)))
		r = append(r, nums(t, tb, fmt.Sprintf("r r=%d", band)))
	}
	full := false
	for i, th := range ths {
		byBand := []float64{r[0][i], r[1][i], r[2][i]}
		if !each(byBand, neverFalls) || (th == 1.2 && !each(byBand, rises)) {
			t.Errorf("threshold %v: recall at r=2/6/10 is %v", th, byBand)
		}
		for b := range r {
			if r[b][i] == 1 {
				full = true
				if p[b][i] >= 0.3 {
					t.Errorf("threshold %v band %d: full recall at precision %.3f", th, b, p[b][i])
				}
			}
		}
	}
	if !full {
		t.Error("no band reaches full recall: the collapse is not shown")
	}
}

// TestAblationPartition — with too few cells precision collapses:
// pyramid < ordinal ≤ grid ≤ grid–pyramid, the pyramid under 0.5.
func TestAblationPartition(t *testing.T) {
	tb := table(t, AblationPartition, lab(t, "table2", quarter))
	if cells := nums(t, tb, "cells"); fmt.Sprint(cells) != "[10 120 1024 10240]" {
		t.Errorf("cells %v, want 2d, d!, u^d and 10·u^d at u=4, d=5", cells)
	}
	p := nums(t, tb, "precision")
	if !each(p, neverFalls) || p[0] >= p[1] || p[0] >= 0.5 {
		t.Errorf("precision pyramid/ordinal/grid/grid-pyramid %v", p)
	}
}

// TestAblationPrune — Lemma 2's prune never changes precision or recall,
// and from δ=0.7 it leaves fewer live signatures and signature tests.
func TestAblationPrune(t *testing.T) {
	tb := table(t, AblationPrune, lab(t, "vs2", quarter))
	deltas, prune := nums(t, tb, "δ"), tb.Column("prune")
	sigs, tests := nums(t, tb, "avg signatures"), nums(t, tb, "sig tests")
	p, r := nums(t, tb, "precision"), nums(t, tb, "recall")
	for i := 0; i+1 < len(deltas); i += 2 {
		on, off := i, i+1
		if prune[on] != "on" || prune[off] != "off" {
			t.Fatalf("rows %d, %d are prune %s, %s", on, off, prune[on], prune[off])
		}
		if p[on] != p[off] || r[on] != r[off] {
			t.Errorf("δ=%v: the prune changed precision/recall %.3f/%.3f → %.3f/%.3f", deltas[on], p[off], r[off], p[on], r[on])
		}
		if deltas[on] >= 0.7 && (sigs[on] >= sigs[off] || tests[on] >= tests[off]) {
			t.Errorf("δ=%v: with the prune %v signatures, %v tests; without %v, %v",
				deltas[on], sigs[on], tests[on], sigs[off], tests[off])
		}
	}
}

// TestRobustness — reordering leaves the fingerprint's cell set intact,
// photometric, resize and frame-rate attacks keep most of it, the combined
// VS2 attack stays detectable at δ=0.5, a logo costs real similarity, and
// letterboxing and cropping defeat it.
func TestRobustness(t *testing.T) {
	tb := table(t, Robustness, lab(t, "robustness", quarter))
	jac, r5 := map[string]float64{}, map[string]float64{}
	js, rs := nums(t, tb, "mean Jaccard"), nums(t, tb, "recall δ=0.5")
	for i, a := range tb.Column("attack") {
		jac[a], r5[a] = js[i], rs[i]
	}
	for _, a := range []string{"none", "reorder 5s"} {
		if jac[a] != 1 {
			t.Errorf("%s: Jaccard %.3f, want 1", a, jac[a])
		}
	}
	// Measured: 0.87–0.94 for these.
	for _, a := range []string{"brightness+20", "contrast 1.15", "noise ±8", "resize +16px", "fps 29.97→25"} {
		if jac[a] < 0.85 || r5[a] != 1 {
			t.Errorf("%s: Jaccard %.3f, recall %.3f", a, jac[a], r5[a])
		}
	}
	if c := "combined (VS2)"; jac[c] < 0.7 || r5[c] != 1 {
		t.Errorf("%s: Jaccard %.3f, recall %.3f", c, jac[c], r5[c])
	}
	if l := jac["logo 12%"]; l >= jac["combined (VS2)"] || l < 0.3 {
		t.Errorf("logo 12%%: Jaccard %.3f, want between 0.3 and the combined attack's", l)
	}
	for _, a := range []string{"letterbox 20%", "crop 80%"} {
		if jac[a] >= 0.1 || r5[a] != 0 {
			t.Errorf("%s: Jaccard %.3f, recall %.3f", a, jac[a], r5[a])
		}
	}
}

// TestTemporalRobustness — Sequential order at δ=0.5 detects every attack
// family; Geometric order never detects more and loses more as δ rises;
// localization error tracks temporal distortion and shrinks as δ rises.
func TestTemporalRobustness(t *testing.T) {
	tb := table(t, TemporalRobustness, lab(t, "attack", quarter))
	methods, orders, families := tb.Column("method"), tb.Column("order"), tb.Column("family")
	deltas, p, r, loc := nums(t, tb, "δ"), nums(t, tb, "precision"), nums(t, tb, "recall"), nums(t, tb, "loc err (s)")
	type cell struct {
		method, order string
		delta         float64
		family        string
	}
	at := map[cell]int{}
	for i := range methods {
		at[cell{methods[i], orders[i], deltas[i], families[i]}] = i
	}
	if len(at) != len(methods) {
		t.Fatalf("%d rows for %d distinct cells", len(methods), len(at))
	}
	t.Run("sequential-fully-robust", func(t *testing.T) {
		for c, i := range at {
			if c.order == "sequential" && c.delta == 0.5 && (r[i] != 1 || p[i] < 0.9) {
				t.Errorf("%+v: precision %.3f, recall %.3f", c, p[i], r[i])
			}
		}
	})
	t.Run("geometric-trades-recall", func(t *testing.T) {
		gap := map[float64]float64{}
		for c, i := range at {
			if c.order != "geometric" {
				continue
			}
			seq := c
			seq.order = "sequential"
			if r[i] > r[at[seq]] {
				t.Errorf("%+v: geometric recall %.3f above sequential %.3f", c, r[i], r[at[seq]])
			}
			gap[c.delta] += r[at[seq]] - r[i]
		}
		if gap[0.7] <= gap[0.5] {
			t.Errorf("recall lost to geometric order: %.3f at δ=0.5, %.3f at δ=0.7; want it growing with δ", gap[0.5], gap[0.7])
		}
	})
	t.Run("localization-error", func(t *testing.T) {
		for _, m := range []string{"sketch", "bit"} {
			seq := func(delta float64, family string) float64 {
				return loc[at[cell{m, "sequential", delta, family}]]
			}
			if shuffled, local := min(seq(0.5, "reorder"), seq(0.5, "splice")), max(seq(0.5, "speed"), seq(0.5, "drop")); shuffled <= local {
				t.Errorf("%s: loc err reorder/splice %.3f s not above speed/drop %.3f s", m, shuffled, local)
			}
			var at5, at7 float64
			for c, i := range at {
				if c.method == m && c.order == "sequential" {
					if c.delta == 0.5 {
						at5 += loc[i]
					} else {
						at7 += loc[i]
					}
				}
			}
			if at7 >= at5 {
				t.Errorf("%s: summed loc err %.3f s at δ=0.7, %.3f s at δ=0.5", m, at7, at5)
			}
		}
	})
}

// TestAblationLambda — copies re-timed up to 2× slower are all detected at
// every λ; at 3× recall falls.
func TestAblationLambda(t *testing.T) {
	tb := table(t, AblationLambda, lab(t, "lambda", quarter))
	stretch := tb.Column("stretch")
	for _, lambda := range []string{"1", "2", "4"} {
		r := nums(t, tb, "recall λ="+lambda)
		for i, s := range stretch {
			if full := s != "3.00×"; full != (r[i] == 1) {
				t.Errorf("λ=%s stretch %s: recall %.3f", lambda, s, r[i])
			}
		}
	}
}

// TestAblationIndexUpdate — an online add or remove allocates a small
// fraction of what a rebuild does, and a rebuild's bytes grow with m. It
// counts the process's heap bytes, so it runs alone: it is not parallel.
func TestAblationIndexUpdate(t *testing.T) {
	tb := table(t, AblationIndexUpdate, NewLab(Options{}))
	ms, rebuild := nums(t, tb, "m"), nums(t, tb, "rebuild B")
	// Measured: a rebuild allocates 80–280× an add's bytes.
	for _, col := range []string{"add B", "remove B"} {
		for i, b := range nums(t, tb, col) {
			if b <= 0 || 20*b > rebuild[i] {
				t.Errorf("m=%v: %s %v against a rebuild's %v", ms[i], col, b, rebuild[i])
			}
		}
	}
	if !each(rebuild, rises) {
		t.Errorf("rebuild bytes over m %v: not growing", rebuild)
	}
}

// TestRecovery — a run cut at a checkpoint, its WAL replayed with every
// logged subscription change, finishes with exactly the uninterrupted
// run's matches.
func TestRecovery(t *testing.T) {
	tb := table(t, Recovery, lab(t, "vs1", quarter))
	if got := fmt.Sprint(tb.Column("plane-recs")); got != "[0 0 0 16 64 256]" {
		t.Errorf("plane records %s, want the planned 0 0 0 16 64 256", got)
	}
	for i, same := range tb.Column("identical") {
		if same != "true" {
			t.Errorf("row %d: recovered matches differ from the uninterrupted run's", i)
		}
	}
}

// TestQueryScale — the table vcdbench prints for the query index: at
// every level the index's matches equal the scan's, there are matches to
// compare, and a window costs the index at most a true copy's comparisons
// (two queries' 128 positions), however many queries are subscribed.
func TestQueryScale(t *testing.T) {
	tb := table(t, QueryScale, lab(t, "synthetic", quarter))
	if got := fmt.Sprint(tb.Column("queries")); got != "[1000 10000]" {
		t.Errorf("levels %s, want 1000 10000 at scale %g", got, quarter)
	}
	for i, same := range tb.Column("identical") {
		if same != "true" {
			t.Errorf("row %d: the index's matches differ from the scan's", i)
		}
	}
	for i, n := range nums(t, tb, "matches") {
		if n == 0 {
			t.Errorf("row %d: no matches; the equality check is vacuous", i)
		}
	}
	for i, c := range nums(t, tb, "comparisons/window") {
		if c <= 0 || c > 2*128 {
			t.Errorf("row %d: %.1f comparisons per window", i, c)
		}
	}
}

// TestFleetScale — the table vcdbench prints for the stream pool: at every
// level the sampled streams match isolated engines exactly, and there are
// matches to compare. Its heap columns are read only by TestFleetScaleSmoke,
// which runs alone: beside parallel tests the heap growth is theirs too.
func TestFleetScale(t *testing.T) {
	tb := table(t, FleetScale, lab(t, "synthetic", quarter))
	if got := fmt.Sprint(tb.Column("streams")); got != "[64 256]" {
		t.Errorf("levels %s, want 64 256 at scale %g", got, quarter)
	}
	for i, same := range tb.Column("identical") {
		if same != "true" {
			t.Errorf("row %d: sampled fleet streams diverge from isolated engines", i)
		}
	}
	for i, n := range nums(t, tb, "matches") {
		if n == 0 {
			t.Errorf("row %d: no matches; the equivalence check is vacuous", i)
		}
	}
}
