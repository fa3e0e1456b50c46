// Package feature implements the paper's compressed-domain frame
// fingerprint front end (Section III.A): each key frame's DC coefficients
// are spatially pooled into D equal blocks, the D block averages are
// min–max normalised to [0,1] (equation 1), and d of the D values are
// selected as the frame's feature vector. The normalised ordinal structure
// of these block averages is what survives brightness/colour/resolution
// edits across different copies of the same content.
package feature

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"vdsms/internal/mpeg"
)

// Config parameterises the extractor.
type Config struct {
	// GridW×GridH is the spatial pooling grid: D = GridW·GridH blocks.
	// The paper partitions frames into 3×3 blocks.
	GridW, GridH int
	// D is the number of selected dimensions d ∈ [1, GridW·GridH].
	// The paper varies d in [3,7] with default 5.
	D int
	// Select optionally fixes which pooled blocks form the feature vector
	// (indices into the row-major D grid). When nil, DefaultSelection is
	// used.
	Select []int
}

func (c *Config) defaults() {
	if c.GridW == 0 {
		c.GridW = 3
	}
	if c.GridH == 0 {
		c.GridH = 3
	}
	if c.D == 0 {
		c.D = 5
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c.defaults()
	total := c.GridW * c.GridH
	if c.D < 1 || c.D > total {
		return fmt.Errorf("feature: d=%d out of [1,%d]", c.D, total)
	}
	if c.Select != nil {
		if len(c.Select) != c.D {
			return fmt.Errorf("feature: selection of %d blocks but d=%d", len(c.Select), c.D)
		}
		seen := make(map[int]bool)
		for _, s := range c.Select {
			if s < 0 || s >= total || seen[s] {
				return fmt.Errorf("feature: invalid selection %v", c.Select)
			}
			seen[s] = true
		}
	}
	return nil
}

// DefaultSelection returns the canonical d-block selection for a gw×gh
// pooling grid: blocks ordered by distance from the frame centre
// (centre first, then corners, then edges) so small d still spans the
// frame. Ties break by row-major index for determinism.
func DefaultSelection(gw, gh, d int) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cx, cy := float64(gw-1)/2, float64(gh-1)/2
	cands := make([]cand, 0, gw*gh)
	for y := 0; y < gh; y++ {
		for x := 0; x < gw; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			cands = append(cands, cand{idx: y*gw + x, dist: dx*dx + dy*dy})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]int, d)
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

// Extractor converts partial-decode DC grids into normalised feature
// vectors. It is safe for concurrent use.
type Extractor struct {
	cfg Config
	sel []int
	// plans holds the pooling plans built so far, one per DC geometry seen,
	// newest last. The list is replaced, never written, so readers need no
	// lock.
	plans atomic.Pointer[[]*poolPlan]
}

// NewExtractor validates cfg and builds an extractor.
func NewExtractor(cfg Config) (*Extractor, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sel := cfg.Select
	if sel == nil {
		sel = DefaultSelection(cfg.GridW, cfg.GridH, cfg.D)
	}
	e := &Extractor{cfg: cfg, sel: sel}
	e.plans.Store(new([]*poolPlan))
	return e, nil
}

// Config returns the effective configuration (defaults applied).
func (e *Extractor) Config() Config { return e.cfg }

// Selection returns the block indices that form the feature vector.
func (e *Extractor) Selection() []int { return append([]int(nil), e.sel...) }

// Vector computes the d-dimensional normalised feature of one DC frame.
// Each returned component lies in [0,1]. A flat frame (all block averages
// equal) maps to the all-0.5 vector.
func (e *Extractor) Vector(dcf *mpeg.DCFrame) []float64 {
	return e.VectorInto(make([]float64, e.cfg.D), dcf)
}

// VectorInto is Vector into dst, which must hold d values; it allocates
// nothing once the frame's geometry has been seen.
func (e *Extractor) VectorInto(dst []float64, dcf *mpeg.DCFrame) []float64 {
	var stack [16]float64 // the paper's 3×3 grid, with room to spare
	pooled := stack[:]
	if n := e.cfg.GridW * e.cfg.GridH; n > len(stack) {
		pooled = make([]float64, n)
	}
	pooled = e.PoolInto(pooled, dcf)
	normalise(pooled)
	return e.selectInto(dst, pooled)
}

// selectInto copies the selected blocks of a normalised grid into dst.
func (e *Extractor) selectInto(dst, grid []float64) []float64 {
	dst = dst[:e.cfg.D]
	for i, s := range e.sel {
		dst[i] = grid[s]
	}
	return dst
}

// FromPooled derives the normalised, selected feature vector from raw
// pooled block averages (as produced by Pool). It lets parameter sweeps
// cache the expensive codec pipeline once per stream and re-derive vectors
// for any d cheaply. pooled is not modified.
func (e *Extractor) FromPooled(pooled []float64) []float64 {
	if len(pooled) != e.cfg.GridW*e.cfg.GridH {
		panic(fmt.Sprintf("feature: pooled length %d, grid %dx%d",
			len(pooled), e.cfg.GridW, e.cfg.GridH))
	}
	tmp := append([]float64(nil), pooled...)
	normalise(tmp)
	return e.selectInto(make([]float64, e.cfg.D), tmp)
}

// Pool computes the D raw block averages of a DC frame: the frame is
// partitioned into GridW×GridH equal-area regions and each region averages
// the DC values it covers. DC blocks straddling a region boundary
// contribute fractionally by overlap, so pooled values are consistent
// across resolutions whose block grids do not divide evenly by the pooling
// grid (a resized copy must pool to nearly the same values as the
// original). Returned values are unnormalised.
func (e *Extractor) Pool(dcf *mpeg.DCFrame) []float64 {
	return e.PoolInto(make([]float64, e.cfg.GridW*e.cfg.GridH), dcf)
}

// PoolInto is Pool into dst, which must hold at least GridW·GridH values.
func (e *Extractor) PoolInto(dst []float64, dcf *mpeg.DCFrame) []float64 {
	p := e.plan(dcf.BW, dcf.BH)
	dst = dst[:len(p.weight)]
	clear(dst)
	for _, t := range p.terms {
		dst[t.region] += dcf.DC[t.block] * t.w
	}
	for i, w := range p.weight {
		if w > 0 {
			dst[i] /= w
		}
	}
	return dst
}

// poolPlan is the pooling of one DC geometry with the overlap arithmetic
// done: the ⟨block, region, weight⟩ products Pool accumulates and each
// region's total weight. A region receives its terms in block order, rows
// before columns, which is the order the per-frame loops fed it in — so
// pooling through a plan adds the same floats in the same sequence. A plan
// is immutable once built.
type poolPlan struct {
	bw, bh int
	terms  []poolTerm
	weight []float64
}

type poolTerm struct {
	block, region int32
	w             float64
}

// maxPlans bounds the plan list: stream geometry comes from outside, and a
// plan is as large as its DC grid. A fleet of mixed resolutions stays far
// below it; past it the oldest plan is dropped and rebuilt on next use.
const maxPlans = 8

// plan returns the pooling plan for a bw×bh DC grid, building it on first
// use. Two goroutines meeting a new geometry together may both build it;
// the plans are equal and one of them is kept.
func (e *Extractor) plan(bw, bh int) *poolPlan {
	for {
		old := e.plans.Load()
		list := *old
		for _, p := range list {
			if p.bw == bw && p.bh == bh {
				return p
			}
		}
		if len(list) == maxPlans {
			list = list[1:]
		}
		p := e.buildPlan(bw, bh)
		next := slices.Concat(list, []*poolPlan{p})
		if e.plans.CompareAndSwap(old, &next) {
			return p
		}
	}
}

func (e *Extractor) buildPlan(bw, bh int) *poolPlan {
	gw, gh := e.cfg.GridW, e.cfg.GridH
	wx, wy := overlaps(bw, gw), overlaps(bh, gh)
	p := &poolPlan{bw: bw, bh: bh, terms: make([]poolTerm, 0, len(wx)*len(wy)), weight: make([]float64, gw*gh)}
	for _, oy := range wy {
		for _, ox := range wx {
			t := poolTerm{block: int32(oy.block*bw + ox.block), region: int32(oy.region*gw + ox.region), w: ox.w * oy.w}
			p.terms = append(p.terms, t)
			p.weight[t.region] += t.w
		}
	}
	return p
}

// overlap is one (block, region, weight) contribution along one axis.
type overlap struct {
	block, region int
	w             float64
}

// overlaps returns, block by block along an axis of n blocks, each block's
// overlap fractions with g equal regions.
func overlaps(n, g int) []overlap {
	var out []overlap
	for b := 0; b < n; b++ {
		lo := float64(b) * float64(g) / float64(n)
		hi := float64(b+1) * float64(g) / float64(n)
		for r := int(lo); r < g && float64(r) < hi; r++ {
			start := math.Max(lo, float64(r))
			end := math.Min(hi, float64(r+1))
			if end > start {
				out = append(out, overlap{block: b, region: r, w: (end - start) / (hi - lo)})
			}
		}
	}
	return out
}

// normalise applies the paper's equation (1) in place:
// C_i = (C̃_i − C̃_min) / (C̃_max − C̃_min).
func normalise(v []float64) {
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	// Degenerate (flat) frames normalise to 0.5 everywhere; the epsilon
	// absorbs float rounding from fractional pooling so a constant frame
	// does not explode into arbitrary 0/1 extremes.
	if hi-lo < 1e-6 {
		for i := range v {
			v[i] = 0.5
		}
		return
	}
	for i := range v {
		v[i] = (v[i] - lo) / (hi - lo)
	}
}
