// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the synthetic workloads. Each experiment
// returns a stats.Table whose rows are the same series the paper plots;
// EXPERIMENTS.md records the shape comparison against the published
// results.
//
// The workloads are scaled-down but structurally faithful: shorts double as
// continuous queries, VS1 carries verbatim inserts, VS2 carries edited and
// segment-reordered inserts, and all features travel through the real
// encode → partial-DC-decode pipeline. Options.Scale grows everything
// toward paper scale when more runtime is acceptable.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"vdsms/internal/baseline"
	"vdsms/internal/core"
	"vdsms/internal/feature"
	"vdsms/internal/partition"
	"vdsms/internal/stats"
	"vdsms/internal/workload"
)

// Options configures a Lab.
type Options struct {
	// Scale multiplies the number of short videos in the workloads
	// (1 = laptop default of 24 shorts; ~8 grows to the paper's 200).
	Scale float64
	// Seed drives all workload randomness.
	Seed int64
}

// Lab lazily builds and caches the evaluation workloads shared by the
// experiments.
type Lab struct {
	opt    Options
	vs1    *workload.Workload
	vs2    *workload.Workload
	big1   *workload.Workload       // 200-query VS1 for the m sweep
	big2   *workload.Workload       // 100-query VS2 for the Table II retrieval study
	attack *workload.AttackWorkload // temporal-attack robustness workload
}

// NewLab creates a Lab; Scale defaults to 1 and Seed to 20080407 (the
// conference date, for determinism with no magic).
func NewLab(opt Options) *Lab {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 20080407
	}
	return &Lab{opt: opt}
}

func (l *Lab) shorts() int {
	n := int(24 * l.opt.Scale)
	if n < 4 {
		n = 4
	}
	return n
}

func (l *Lab) baseCfg(edited bool) workload.Config {
	return workload.Config{
		NumShorts: l.shorts(),
		// Shorts of 15-40 s with w=5 s give candidate lists of λL/w ≈ 12-32
		// windows, enough for the Sequential-vs-Geometric cost split of the
		// paper to be visible (their shorts are 30-300 s).
		ShortMinSec: 15, ShortMaxSec: 40,
		GapMinSec: 8, GapMaxSec: 20,
		KeyFPS: 2, W: 96, H: 80, Quality: 78,
		Seed: l.opt.Seed, Edited: edited,
	}
}

// VS1 returns the verbatim-insert workload.
func (l *Lab) VS1() *workload.Workload {
	if l.vs1 == nil {
		l.vs1 = workload.Build(l.baseCfg(false))
	}
	return l.vs1
}

// VS2 returns the edited/reordered-insert workload.
func (l *Lab) VS2() *workload.Workload {
	if l.vs2 == nil {
		l.vs2 = workload.Build(l.baseCfg(true))
	}
	return l.vs2
}

// BigVS1 returns the many-query workload for the m sweep (Fig. 9): up to
// 200 shorter shorts.
func (l *Lab) BigVS1() *workload.Workload {
	if l.big1 == nil {
		cfg := l.baseCfg(false)
		cfg.NumShorts = int(200 * l.opt.Scale)
		if cfg.NumShorts < 10 {
			cfg.NumShorts = 10
		}
		if cfg.NumShorts > 200 {
			cfg.NumShorts = 200
		}
		cfg.ShortMinSec, cfg.ShortMaxSec = 8, 15
		cfg.GapMinSec, cfg.GapMaxSec = 4, 8
		l.big1 = workload.Build(cfg)
	}
	return l.big1
}

// BigVS2 returns the many-query edited workload used by the Table II
// membership-test study, where retrieval precision needs enough videos for
// cross-video collisions to show up.
func (l *Lab) BigVS2() *workload.Workload {
	if l.big2 == nil {
		cfg := l.baseCfg(true)
		cfg.NumShorts = int(100 * l.opt.Scale)
		if cfg.NumShorts < 10 {
			cfg.NumShorts = 10
		}
		if cfg.NumShorts > 200 {
			cfg.NumShorts = 200
		}
		cfg.ShortMinSec, cfg.ShortMaxSec = 8, 15
		cfg.GapMinSec, cfg.GapMaxSec = 2, 4
		l.big2 = workload.Build(cfg)
	}
	return l.big2
}

// AttackVS returns the temporal-attack robustness workload: every short
// inserted once per attack family ("none" control included), presets
// rotating across shorts (see workload.BuildAttack).
func (l *Lab) AttackVS() *workload.AttackWorkload {
	if l.attack == nil {
		cfg := l.baseCfg(false)
		cfg.NumShorts = int(8 * l.opt.Scale)
		if cfg.NumShorts < 3 {
			cfg.NumShorts = 3
		}
		cfg.ShortMinSec, cfg.ShortMaxSec = 12, 20
		cfg.GapMinSec, cfg.GapMaxSec = 4, 8
		l.attack = workload.BuildAttack(workload.AttackConfig{Base: cfg})
	}
	return l.attack
}

// derived holds the (u, d)-specific view of a workload: cell ids for the
// engine and feature vectors for the baselines.
type derived struct {
	streamIDs   []uint64
	queryIDs    map[int][]uint64
	streamFeats [][]float64
	queryFeats  map[int][][]float64
	truth       []workload.Insertion
	cfg         workload.Config
}

// derive maps the cached pooled features of wl through a (u, d, scheme)
// pipeline.
func derive(wl *workload.Workload, u, d int, scheme partition.Scheme) (*derived, error) {
	ex, err := feature.NewExtractor(feature.Config{GridW: 3, GridH: 3, D: d})
	if err != nil {
		return nil, err
	}
	pt, err := partition.New(u, d, scheme)
	if err != nil {
		return nil, err
	}
	sp, err := wl.StreamPooled()
	if err != nil {
		return nil, err
	}
	qp, err := wl.QueryPooled()
	if err != nil {
		return nil, err
	}
	out := &derived{
		queryIDs:   make(map[int][]uint64, len(qp)),
		queryFeats: make(map[int][][]float64, len(qp)),
		truth:      wl.Truth,
		cfg:        wl.Cfg,
	}
	scratch := make([]float64, d)
	toIDs := func(pooled [][]float64) ([]uint64, [][]float64) {
		ids := make([]uint64, len(pooled))
		feats := make([][]float64, len(pooled))
		for i, p := range pooled {
			v := ex.FromPooled(p)
			feats[i] = v
			ids[i] = pt.CellInto(v, scratch)
		}
		return ids, feats
	}
	out.streamIDs, out.streamFeats = toIDs(sp)
	for qid, p := range qp {
		ids, feats := toIDs(p)
		out.queryIDs[qid] = ids
		out.queryFeats[qid] = feats
	}
	return out, nil
}

// runResult is the outcome of one engine run.
type runResult struct {
	Stats   core.Stats
	Elapsed time.Duration
	Eval    workload.Eval
	Matches []core.Match
}

// runEngine subscribes the first m queries (by id; m<=0 means all), streams
// the cell ids, and scores the matches. Only stream consumption is timed
// (index construction is offline in the paper).
func runEngine(cfg core.Config, d *derived, m int) (runResult, error) {
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return runResult{}, err
	}
	qids := make([]int, 0, len(d.queryIDs))
	for qid := range d.queryIDs {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	if m > 0 && m < len(qids) {
		qids = qids[:m]
	}
	for _, qid := range qids {
		if err := eng.AddQuery(qid, d.queryIDs[qid]); err != nil {
			return runResult{}, err
		}
	}
	elapsed := stats.Time(func() {
		eng.PushFrames(d.streamIDs)
		eng.Flush()
	})
	reports := make([]workload.Position, 0, len(eng.Matches))
	for _, mt := range eng.Matches {
		reports = append(reports, workload.Position{QueryID: mt.QueryID, P: mt.DetectedAt})
	}
	// Score only against insertions of subscribed queries.
	subscribed := make(map[int]bool, len(qids))
	for _, qid := range qids {
		subscribed[qid] = true
	}
	var truth []workload.Insertion
	for _, ins := range d.truth {
		if subscribed[ins.QueryID] {
			truth = append(truth, ins)
		}
	}
	return runResult{
		Stats:   eng.Stats(),
		Elapsed: elapsed,
		Eval:    workload.Evaluate(reports, truth, cfg.WindowFrames),
		Matches: eng.Matches,
	}, nil
}

// runBaseline streams feature vectors through a baseline matcher and scores
// the result; gap doubles as the evaluation window.
func runBaseline(cfg baseline.Config, d *derived) (workload.Eval, time.Duration, int64, error) {
	m, err := baseline.New(cfg)
	if err != nil {
		return workload.Eval{}, 0, 0, err
	}
	qids := make([]int, 0, len(d.queryFeats))
	for qid := range d.queryFeats {
		qids = append(qids, qid)
	}
	sort.Ints(qids)
	for _, qid := range qids {
		if err := m.AddQuery(qid, d.queryFeats[qid]); err != nil {
			return workload.Eval{}, 0, 0, err
		}
	}
	elapsed := stats.Time(func() {
		for _, f := range d.streamFeats {
			m.Push(f)
		}
	})
	reports := make([]workload.Position, 0, len(m.Matches))
	for _, mt := range m.Matches {
		reports = append(reports, workload.Position{QueryID: mt.QueryID, P: mt.EndFrame})
	}
	return workload.Evaluate(reports, d.truth, cfg.Gap), elapsed, m.FrameDistances, nil
}

// Experiment is a named table generator.
type Experiment struct {
	Name  string
	Paper string // table/figure the experiment reproduces
	Run   func(*Lab) (*stats.Table, error)
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"table2", "Table II", Table2},
	{"fig6", "Figure 6", Fig6},
	{"fig7", "Figure 7", Fig7},
	{"fig8", "Figure 8", Fig8},
	{"fig9", "Figure 9", Fig9},
	{"fig10a", "Figure 10(a)", Fig10a},
	{"fig10b", "Figure 10(b)", Fig10b},
	{"fig11", "Figure 11", Fig11},
	{"fig12", "Figure 12", Fig12},
	{"fig13", "Figure 13", Fig13},
	{"fig14", "Figure 14", Fig14},
	{"fig15", "Figure 15", Fig15},
	{"ablation-partition", "Section III.A rationale", AblationPartition},
	{"ablation-prune", "Section V.B rationale", AblationPrune},
	{"robustness", "Section III.A robustness claims", Robustness},
	{"robustness-temporal", "beyond the paper: temporal-attack detection dashboard", TemporalRobustness},
	{"ablation-lambda", "Section IV.A tempo scaling", AblationLambda},
	{"ablation-index-update", "Section V.C.1 online maintenance", AblationIndexUpdate},
	{"recovery", "beyond the paper: checkpoint/restore + WAL replay", Recovery},
	{"queryscale", "beyond the paper: query index vs scan at 10³–10⁶ queries", QueryScale},
	{"overload", "beyond the paper: load shedding at 2× sustainable ingest", Overload},
	{"fleet", "beyond the paper: multi-tenant pool, 64–1024 streams on one query plane", FleetScale},
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, error) {
	for _, e := range Registry {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
