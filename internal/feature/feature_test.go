package feature

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vdsms/internal/edit"
	"vdsms/internal/mpeg"
	"vdsms/internal/vframe"
)

// dcFrames encodes src at the given quality with GOP 1 and returns the
// partially decoded DC grids.
func dcFrames(t testing.TB, src vframe.Source, quality int) []*mpeg.DCFrame {
	t.Helper()
	var buf bytes.Buffer
	if _, err := mpeg.EncodeSource(&buf, src, quality, 1); err != nil {
		t.Fatal(err)
	}
	dcs, _, err := mpeg.ReadAllDC(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return dcs
}

func synthetic(n int, seed int64) vframe.Source {
	return vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, NumFrames: n, Seed: seed, FPS: 30})
}

func TestConfigValidate(t *testing.T) {
	good := Config{GridW: 3, GridH: 3, D: 5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{GridW: 3, GridH: 3, D: 10},
		{GridW: 3, GridH: 3, D: -1},
		{GridW: 3, GridH: 3, D: 3, Select: []int{0, 1}},
		{GridW: 3, GridH: 3, D: 3, Select: []int{0, 0, 1}},
		{GridW: 3, GridH: 3, D: 3, Select: []int{0, 1, 9}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, c)
		}
	}
}

func TestDefaultSelectionSpread(t *testing.T) {
	sel := DefaultSelection(3, 3, 5)
	if len(sel) != 5 {
		t.Fatalf("selection length %d", len(sel))
	}
	if sel[0] != 4 {
		t.Errorf("first selected block %d, want centre (4)", sel[0])
	}
	seen := make(map[int]bool)
	for _, s := range sel {
		if s < 0 || s >= 9 || seen[s] {
			t.Fatalf("bad selection %v", sel)
		}
		seen[s] = true
	}
	// d = D selects everything.
	all := DefaultSelection(3, 3, 9)
	if len(all) != 9 {
		t.Errorf("full selection length %d", len(all))
	}
}

func TestVectorRangeAndDim(t *testing.T) {
	ex, err := NewExtractor(Config{D: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, dcf := range dcFrames(t, synthetic(4, 1), 80) {
		v := ex.Vector(dcf)
		if len(v) != 5 {
			t.Fatalf("vector length %d", len(v))
		}
		for i, x := range v {
			if x < 0 || x > 1 {
				t.Fatalf("component %d = %g outside [0,1]", i, x)
			}
		}
	}
}

func TestVectorNormalisationHitsBounds(t *testing.T) {
	ex, err := NewExtractor(Config{GridW: 3, GridH: 3, D: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, dcf := range dcFrames(t, synthetic(2, 2), 80) {
		v := ex.Vector(dcf)
		var hasZero, hasOne bool
		for _, x := range v {
			if x == 0 {
				hasZero = true
			}
			if x == 1 {
				hasOne = true
			}
		}
		if !hasZero || !hasOne {
			t.Errorf("min-max normalised vector %v lacks 0 and 1 extremes", v)
		}
	}
}

func TestFlatFrameIsHalf(t *testing.T) {
	// A constant frame has equal block averages → all components 0.5.
	f := vframe.NewFrame(96, 80)
	for i := range f.Y {
		f.Y[i] = 90
	}
	src := vframe.FromFrames([]*vframe.Frame{f}, 30)
	ex, _ := NewExtractor(Config{D: 5})
	v := ex.Vector(dcFrames(t, src, 80)[0])
	for i, x := range v {
		if x != 0.5 {
			t.Errorf("flat frame component %d = %g, want 0.5", i, x)
		}
	}
}

func TestBrightnessInvariance(t *testing.T) {
	// Min-max normalisation should make features nearly invariant to a
	// global brightness change (the key robustness claim of III.A).
	src := synthetic(3, 3)
	bright := edit.Brightness(src, 25)
	ex, _ := NewExtractor(Config{D: 5})
	a := dcFrames(t, src, 85)
	b := dcFrames(t, bright, 85)
	for i := range a {
		va, vb := ex.Vector(a[i]), ex.Vector(b[i])
		for j := range va {
			if math.Abs(va[j]-vb[j]) > 0.12 {
				t.Errorf("frame %d dim %d: %g vs %g after +25 brightness", i, j, va[j], vb[j])
			}
		}
	}
}

func TestResolutionRobustness(t *testing.T) {
	src := synthetic(3, 4)
	rescaled := edit.Rescale(src, 64, 48)
	ex, _ := NewExtractor(Config{D: 5})
	a := dcFrames(t, src, 85)
	b := dcFrames(t, rescaled, 85)
	for i := range a {
		va, vb := ex.Vector(a[i]), ex.Vector(b[i])
		for j := range va {
			if math.Abs(va[j]-vb[j]) > 0.2 {
				t.Errorf("frame %d dim %d: %g vs %g after rescale", i, j, va[j], vb[j])
			}
		}
	}
}

func TestDistinctContentDiffers(t *testing.T) {
	ex, _ := NewExtractor(Config{D: 5})
	a := dcFrames(t, synthetic(1, 5), 85)
	b := dcFrames(t, synthetic(1, 6), 85)
	va, vb := ex.Vector(a[0]), ex.Vector(b[0])
	var dist float64
	for j := range va {
		dist += math.Abs(va[j] - vb[j])
	}
	if dist < 0.1 {
		t.Errorf("features of distinct videos nearly identical: %v vs %v", va, vb)
	}
}

func TestPoolPartitionsAllBlocks(t *testing.T) {
	ex, _ := NewExtractor(Config{GridW: 3, GridH: 3, D: 9})
	dcf := dcFrames(t, synthetic(1, 7), 80)[0]
	pooled := ex.Pool(dcf)
	if len(pooled) != 9 {
		t.Fatalf("pooled length %d", len(pooled))
	}
	// The 9 regions have equal area, so the unweighted mean of the pooled
	// values equals the mean of all DC values.
	var direct float64
	for _, v := range dcf.DC {
		direct += v
	}
	direct /= float64(len(dcf.DC))
	var pooledAvg float64
	for _, p := range pooled {
		pooledAvg += p
	}
	pooledAvg /= 9
	if math.Abs(direct-pooledAvg) > 1e-6 {
		t.Errorf("pooling lost mass: %g vs %g", direct, pooledAvg)
	}
}

// TestPoolResolutionConsistency: pooled values of the same content at two
// resolutions must agree closely — the property integer block assignment
// lacked.
func TestPoolResolutionConsistency(t *testing.T) {
	src := synthetic(2, 9)
	small := edit.Rescale(src, 64, 48)
	ex, _ := NewExtractor(Config{GridW: 3, GridH: 3, D: 9})
	a := dcFrames(t, src, 90)
	b := dcFrames(t, small, 90)
	for i := range a {
		pa, pb := ex.Pool(a[i]), ex.Pool(b[i])
		// Normalise scale: compare region values relative to their range.
		lo, hi := pa[0], pa[0]
		for _, v := range pa {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		for j := range pa {
			if hi > lo && math.Abs(pa[j]-pb[j])/(hi-lo) > 0.12 {
				t.Errorf("frame %d region %d: %g vs %g across resolutions", i, j, pa[j], pb[j])
			}
		}
	}
}

func TestCustomSelection(t *testing.T) {
	ex, err := NewExtractor(Config{GridW: 3, GridH: 3, D: 3, Select: []int{0, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Selection(); got[0] != 0 || got[1] != 4 || got[2] != 8 {
		t.Errorf("Selection = %v", got)
	}
	dcf := dcFrames(t, synthetic(1, 8), 80)[0]
	if v := ex.Vector(dcf); len(v) != 3 {
		t.Errorf("custom selection vector length %d", len(v))
	}
}

// poolPerFrame is Pool as it was before plans: the overlaps of both axes
// worked out for the frame in hand, block by block, products and weights
// accumulated in block order. Plans are held to it bit for bit.
func poolPerFrame(gw, gh int, dcf *mpeg.DCFrame) []float64 {
	perBlock := func(n, g int) [][]overlap {
		out := make([][]overlap, n)
		for _, o := range overlaps(n, g) {
			out[o.block] = append(out[o.block], o)
		}
		return out
	}
	wx := perBlock(dcf.BW, gw)
	wy := perBlock(dcf.BH, gh)
	sums := make([]float64, gw*gh)
	weights := make([]float64, gw*gh)
	for by := 0; by < dcf.BH; by++ {
		for bx := 0; bx < dcf.BW; bx++ {
			dc := dcf.DC[by*dcf.BW+bx]
			for _, oy := range wy[by] {
				for _, ox := range wx[bx] {
					w := ox.w * oy.w
					idx := oy.region*gw + ox.region
					sums[idx] += dc * w
					weights[idx] += w
				}
			}
		}
	}
	for i := range sums {
		if weights[i] > 0 {
			sums[i] /= weights[i]
		}
	}
	return sums
}

// randomGrid is a DC frame of the given geometry with noise for content.
func randomGrid(bw, bh int, rng *rand.Rand) *mpeg.DCFrame {
	dcf := &mpeg.DCFrame{BW: bw, BH: bh, DC: make([]float64, bw*bh)}
	for i := range dcf.DC {
		dcf.DC[i] = float64(rng.Intn(2041)-1020) * 3
	}
	return dcf
}

// TestPlanPoolsBitForBit: pooling through a cached plan returns exactly the
// floats the per-frame arithmetic does, on grids that divide by the pooling
// grid, grids that straddle it, grids smaller than it, and more geometries
// than the plan list keeps; the Into variants fill the caller's buffers with
// the same values and, geometry seen, allocate nothing.
func TestPlanPoolsBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []Config{{D: 5}, {GridW: 4, GridH: 2, D: 8}, {GridW: 5, GridH: 5, D: 25}} {
		ex, err := NewExtractor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = ex.Config()
		for round := 0; round < 2; round++ { // the second round meets evicted plans again
			for _, g := range [][2]int{{12, 10}, {14, 12}, {10, 8}, {20, 14}, {2, 2}, {1, 1}, {3, 3}, {4, 3}, {7, 5}, {6, 6}, {22, 18}} {
				dcf := randomGrid(g[0], g[1], rng)
				want := poolPerFrame(cfg.GridW, cfg.GridH, dcf)
				if got := ex.Pool(dcf); !slices.Equal(got, want) {
					t.Fatalf("grid %dx%d over %dx%d: pooled %v, per-frame arithmetic %v", g[0], g[1], cfg.GridW, cfg.GridH, got, want)
				}
				vec := make([]float64, cfg.D)
				if got := ex.VectorInto(vec, dcf); &got[0] != &vec[0] || !slices.Equal(got, ex.Vector(dcf)) || !slices.Equal(got, ex.FromPooled(want)) {
					t.Fatalf("grid %dx%d: VectorInto %v, Vector %v", g[0], g[1], got, ex.Vector(dcf))
				}
			}
		}
		if n := len(*ex.plans.Load()); n != maxPlans {
			t.Errorf("%d plans kept after 11 geometries, want %d", n, maxPlans)
		}
	}
	ex, _ := NewExtractor(Config{D: 5})
	dcf, vec := randomGrid(12, 10, rng), make([]float64, 5)
	ex.VectorInto(vec, dcf)
	if n := testing.AllocsPerRun(100, func() { ex.VectorInto(vec, dcf) }); n != 0 {
		t.Errorf("VectorInto allocates %v times per frame, want 0", n)
	}
}

// TestPlanSharedAcrossGoroutines: goroutines alternating between two
// geometries on one extractor (streams of different resolutions in one
// fleet), the first of them meeting both geometries at the same moment, are
// all handed one plan per geometry, from the first call on. Run under -race
// in CI.
func TestPlanSharedAcrossGoroutines(t *testing.T) {
	ex, _ := NewExtractor(Config{D: 5})
	geoms := [][2]int{{12, 10}, {14, 12}}
	var first [2]atomic.Pointer[poolPlan]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			vec := make([]float64, 5)
			for i := 0; i < 200; i++ {
				k := (i + g) % 2
				dcf := randomGrid(geoms[k][0], geoms[k][1], rng)
				if p := ex.plan(dcf.BW, dcf.BH); !first[k].CompareAndSwap(nil, p) && first[k].Load() != p {
					t.Errorf("goroutine %d step %d: a second plan for %v", g, i, geoms[k])
					return
				}
				if got, want := ex.VectorInto(vec, dcf), ex.FromPooled(poolPerFrame(3, 3, dcf)); !slices.Equal(got, want) {
					t.Errorf("goroutine %d step %d: vector %v, want %v", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(*ex.plans.Load()); n != 2 {
		t.Errorf("%d plans after alternating between two geometries, want 2", n)
	}
}
