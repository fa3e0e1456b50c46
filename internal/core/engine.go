package core

import (
	"cmp"
	"slices"
	"time"

	"vdsms/internal/minhash"
	"vdsms/internal/perfobs"
	"vdsms/internal/qindex"
	"vdsms/internal/trace"
)

// Engine is the streaming detector for one stream. It consumes one cell id
// per key frame via PushFrame (or batches via PushFrames); matches are
// delivered to the OnMatch callback (if set) and accumulated in Matches.
//
// An Engine is not safe for concurrent use, but engines sharing a QuerySet
// may run in parallel goroutines — that is where the detector's
// parallelism lives (whole streams on every core, see internal/fleet):
// each window captures the set's current immutable plane with one atomic
// load and probes it without locks. The query set holds no lock during
// window processing; AddQuery/RemoveQuery publish a successor plane that
// takes effect at the next window.
type Engine struct {
	cfg Config
	qs  *QuerySet

	// Stream state.
	frame  int      // key frames consumed
	curIDs []uint64 // ids of the window being filled
	// planeVersion is the query-plane version the most recent window was
	// processed against — the whole window runs on one captured plane, so
	// this is the observable face of the copy-on-write churn contract.
	planeVersion uint64

	// seq is the Sequential order candidate list C_L.
	seq []*seqCandidate
	// geo is the Geometric order's stored bucket list, oldest first, and
	// geoReported dedups its reports per (query, candidate start).
	geo         []*geoBucket
	geoReported map[geoKey]bool
	// win is the per-window record, reused window after window.
	win windowResult
	// pending buffers the window's matches in emission order: they are
	// emitted after the trace fold, whose audit results their provenance
	// records carry.
	pending []Match
	// newReported holds the Sequential window-alone reports of the window,
	// ascending; the window's fresh candidate takes it over as its dedup
	// set.
	newReported []int

	// Reused across windows: the prober's memory (the window's related list
	// and its signatures live here until the next probe on it) and the
	// window's related ids. probe is made by the first probe, or lent for
	// one call by PushFramesOn; nothing read after processWindow returns
	// lives in it (signatures that are kept are copied out of it).
	probe *qindex.ProbeScratch
	qids  []int

	stats   Stats
	Matches []Match
	// OnMatch, when non-nil, is invoked synchronously for every match, on
	// the goroutine calling PushFrame/PushFrames/Flush.
	OnMatch func(Match)

	// Decision-provenance state (see trace.go). trc is nil unless tracing
	// was armed; its enabled flag is sampled once per window into
	// windowResult.tr, the pointer every kernel recording site checks.
	trc     *trace.Recorder
	nearEps float64
	// Sampled exact-audit channel (SetAudit): every auditEvery-th report
	// and prune decision is recomputed exactly from the retained raw
	// cell-id windows in auditWins and scored against auditBound.
	auditEvery   int
	auditBound   float64
	auditWins    map[int][]uint64
	auditRes     map[auditKey]*trace.AuditResult
	auditReports uint64
	auditPrunes  uint64

	// obs is the observer the per-window record rec goes to (perf.go). rec
	// collects the stages staged for the window being filled, is completed
	// by the kernel when the window is timed, and is cleared after it.
	obs Observer
	rec perfobs.Span

	// winners records which cell won each row of the window being sketched,
	// for the index to read its posting lists by; reused window after window.
	winners minhash.Winners
}

// NewEngine validates cfg and builds an engine with its own private query
// set.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qs, err := NewQuerySet(cfg.K, cfg.Seed, cfg.UseIndex)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, qs), nil
}

// NewEngineWith builds an engine monitoring one stream against a shared
// QuerySet (the multi-stream deployment: one query set, one engine per
// concurrent stream). cfg.K and cfg.Seed must be the set's (CheckConfig);
// cfg.UseIndex is taken from the set.
func NewEngineWith(cfg Config, qs *QuerySet) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := qs.CheckConfig(cfg); err != nil {
		return nil, err
	}
	return newEngine(cfg, qs), nil
}

func newEngine(cfg Config, qs *QuerySet) *Engine {
	return &Engine{cfg: cfg, qs: qs, geoReported: make(map[geoKey]bool)}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Queries returns the engine's query set (shared or private).
func (e *Engine) Queries() *QuerySet { return e.qs }

// Family exposes the hash family so callers can sketch query material with
// identical functions.
func (e *Engine) Family() *minhash.Family { return e.qs.Family() }

// Stats returns a snapshot of the operation counters.
func (e *Engine) Stats() Stats { return e.stats }

// NumQueries returns the number of subscribed queries.
func (e *Engine) NumQueries() int { return e.qs.Len() }

// PlaneVersion returns the query-plane version the last processed window
// ran against (0 before any window). Because a window captures its plane
// once, this lags QuerySet.Version while churn overlaps an in-flight
// window and catches up at the next window boundary.
func (e *Engine) PlaneVersion() uint64 { return e.planeVersion }

// AddQuery subscribes a continuous query given the cell ids of its key
// frames. With a shared QuerySet this affects every sharing engine.
func (e *Engine) AddQuery(id int, cellIDs []uint64) error {
	return e.qs.Add(id, cellIDs)
}

// AddQueries subscribes a batch of continuous queries in one bulk index
// build; see QuerySet.AddBatch for the cost argument. Use it when
// subscribing large query populations (the queryscale workloads).
func (e *Engine) AddQueries(ids []int, cellIDs [][]uint64) error {
	return e.qs.AddBatch(ids, cellIDs)
}

// RemoveQuery unsubscribes a query. Candidates tracking it drop it at
// their next combination.
func (e *Engine) RemoveQuery(id int) error {
	return e.qs.Remove(id)
}

// PushFrame feeds the cell id of the next key frame. When a basic window
// fills, it is processed.
func (e *Engine) PushFrame(cellID uint64) {
	e.curIDs = append(e.curIDs, cellID)
	e.frame++
	e.stats.Frames++
	telFrames.Inc()
	if len(e.curIDs) == e.cfg.WindowFrames {
		e.processWindow()
		e.curIDs = e.curIDs[:0]
	}
}

// PushFrames feeds a batch of key-frame cell ids, processing every window
// that fills. It is equivalent to calling PushFrame per id but amortises
// the per-frame call overhead.
func (e *Engine) PushFrames(cellIDs []uint64) {
	telFrames.Add(int64(len(cellIDs)))
	for len(cellIDs) > 0 {
		need := e.cfg.WindowFrames - len(e.curIDs)
		if need > len(cellIDs) {
			e.curIDs = append(e.curIDs, cellIDs...)
			e.frame += len(cellIDs)
			e.stats.Frames += len(cellIDs)
			return
		}
		e.curIDs = append(e.curIDs, cellIDs[:need]...)
		e.frame += need
		e.stats.Frames += need
		e.processWindow()
		e.curIDs = e.curIDs[:0]
		cellIDs = cellIDs[need:]
	}
}

// PushFramesOn is PushFrames with the engine's probes running on ps, a
// scratch the caller owns and may hand to its next engine as soon as the
// call returns — how a pool worker that drives many engines one at a time
// keeps one scratch instead of one per stream.
func (e *Engine) PushFramesOn(ps *qindex.ProbeScratch, cellIDs []uint64) {
	own := e.probe
	e.probe = ps
	defer func() { e.probe = own }()
	e.PushFrames(cellIDs)
}

// PendingFrames returns how many frames of the currently filling window
// have been consumed — callers batching PushFrames can align batches to
// window boundaries so match latency equals the per-frame path's.
func (e *Engine) PendingFrames() int { return len(e.curIDs) }

// Flush processes a final partial window, if any. Call at end of stream.
func (e *Engine) Flush() {
	if len(e.curIDs) > 0 {
		e.processWindow()
		e.curIDs = e.curIDs[:0]
	}
}

// curWindowStartFrame returns the first frame index of the window
// currently being processed.
func (e *Engine) curWindowStartFrame() int { return e.frame - len(e.curIDs) }

// maxWindowsOf returns ⌈λL/w⌉ for a query, under this engine's window.
func (e *Engine) maxWindowsOf(q *qindex.Entry) int { return e.cfg.maxWindows(q.Length) }

// processWindow sketches the filled window, probes it against the query
// plane, folds it into the candidate list and emits the window's matches.
//
// A timed window (Timed) completes the record with its kernel stages —
// sketch → probe → combine → merge, plus the window total, two clock reads
// per stage — and hands it to observeWindow. The timed path allocates
// nothing beyond what the untimed kernel already does.
func (e *Engine) processWindow() {
	e.stats.Windows++
	telWindows.Inc()
	rec := &e.rec
	timed := e.Timed()
	var t0, t1 time.Time
	if timed {
		e.obs.Spans.Begin(rec)
		t0 = time.Now()
	}
	wsk := e.qs.Family().SketchWinners(e.curIDs, &e.winners)
	if timed {
		t1 = time.Now()
		rec.NS[perfobs.StageSketch] = t1.Sub(t0).Nanoseconds()
	}
	rec.AllocMark(perfobs.StageSketch)
	// The entire window is processed against one immutable plane captured
	// here with a single atomic load: the probe and candidate evaluation see
	// the same subscription version even while a concurrent
	// AddQueries/Remove publishes a successor. In-flight windows therefore
	// stay on the old version; churn lands at the next window.
	view := e.qs.view()
	e.planeVersion = view.version
	win := &e.win
	*win = windowResult{
		sketch:     wsk,
		startFrame: e.curWindowStartFrame(),
		endFrame:   e.frame,
		maxW:       e.globalMaxWindows(view),
	}
	// The tracer's enabled flag is sampled once here: every recording site
	// downstream checks win.tr, so a mid-window toggle never tears a
	// window's event set and the disabled path is a single nil comparison.
	if e.trc.Enabled() {
		win.tr = e.trc
		win.nearEps = e.nearEps
		if e.auditEvery > 0 {
			e.retainAuditWindow(win)
		}
	}
	before := e.stats
	e.pending = e.pending[:0]

	if e.cfg.Order == Sequential {
		e.seqPrePass(win)
	}
	// The pre-pass accrues to the merge stage, together with the post-pass
	// after the combine below.
	var tp time.Time
	if timed {
		tp = time.Now()
		rec.NS[perfobs.StageMerge] = tp.Sub(t1).Nanoseconds()
	}
	if view.index.Len() > 0 {
		e.probeWindow(win, wsk, view)
	}
	if timed {
		now := time.Now()
		rec.NS[perfobs.StageProbe] = now.Sub(tp).Nanoseconds()
		tp = now
	}
	if e.cfg.Order == Sequential {
		e.sequential(win, view)
	} else {
		e.geometric(win, view)
	}
	var tMerge time.Time
	if timed {
		tMerge = time.Now()
		rec.NS[perfobs.StageCombine] = tMerge.Sub(tp).Nanoseconds()
	}
	// Probe and combine allocations are attributed to the probe stage as
	// one block.
	rec.AllocMark(perfobs.StageProbe)

	if e.cfg.Order == Sequential {
		e.seqPostPass(win)
	}
	if win.tr != nil {
		evs := win.tr.FoldWindow()
		if e.auditEvery > 0 {
			e.auditWindow(evs, view)
		}
		win.tr.Publish(evs)
	}
	for _, m := range e.pending {
		e.emitOne(m, win)
	}
	compared := e.stats.SigTests + e.stats.SketchCompares - before.SigTests - before.SketchCompares
	e.stats.Compared += compared
	telCompared.Add(compared)
	telProbeRelated.Add(e.stats.Probed - before.Probed)
	telProbePruned.Add(e.stats.Pruned - before.Pruned)
	rec.AllocMark(perfobs.StageMerge)
	if timed {
		end := time.Now()
		rec.NS[perfobs.StageMerge] += end.Sub(tMerge).Nanoseconds()
		rec.NS[perfobs.StageWindowTotal] = end.Sub(t0).Nanoseconds()
		e.observeWindow(win)
	}
	*rec = perfobs.Span{}
}

// probeWindow determines the window's related queries: their ids,
// ascending, and under the Bit method their signatures beside them, which
// live in the engine's probe scratch until its next window. The Sketch
// method without the index relates every query to the window; with the
// Bit method a plane without the index is scanned, one full sketch
// comparison per query.
func (e *Engine) probeWindow(win *windowResult, wsk minhash.Sketch, view *queryPlane) {
	ids := e.qids[:0]
	if e.cfg.Method == Sketch && !e.qs.useIndex {
		ids = view.index.QueryIDs(ids)
	} else {
		if e.probe == nil {
			e.probe = new(qindex.ProbeScratch)
		}
		po := view.index.ProbeInto(e.probe, wsk, e.pruneDelta(), &e.winners)
		if !e.qs.useIndex {
			e.stats.SketchCompares += int64(view.index.Len())
		}
		e.stats.ProbeComparisons += int64(po.Comparisons)
		e.stats.Probed += int64(len(po.Related))
		e.stats.Pruned += int64(len(po.Pruned))
		slices.SortFunc(po.Related, func(a, b qindex.Result) int { return cmp.Compare(a.QID, b.QID) })
		for _, r := range po.Related {
			ids = append(ids, r.QID)
		}
		if e.cfg.Method == Bit {
			win.related = po.Related
		}
	}
	e.qids, win.qids = ids, ids
}

// pruneDelta is the δ handed to probers for Lemma 2 pruning: the real
// threshold, or 0 (never prune) when the ablation flag disables pruning.
func (e *Engine) pruneDelta() float64 {
	if e.cfg.DisablePrune {
		return 0
	}
	return e.cfg.Delta
}

// globalMaxWindows returns the largest ⌈λL/w⌉ over the snapshot's queries
// (1 when no queries are subscribed, so the structures stay bounded).
func (e *Engine) globalMaxWindows(view *queryPlane) int {
	if l := view.index.Longest(); l > 0 {
		return e.cfg.maxWindows(l)
	}
	return 1
}

// windowResult carries everything downstream stages need about one basic
// window.
type windowResult struct {
	sketch     minhash.Sketch
	startFrame int
	endFrame   int
	maxW       int             // global candidate bound ⌈λL_max/w⌉
	qids       []int           // related query ids, ascending
	related    []qindex.Result // Bit: window-vs-query signatures, parallel to qids
	// tr is the lifecycle-event recorder for this window, nil when tracing
	// is off — the single guard every kernel recording site checks.
	tr      *trace.Recorder
	nearEps float64 // near-miss band: estimates in [δ−ε, δ) are journaled
}

// emitOne records the match's provenance (when tracing is on) and emits
// it. Match ids are assigned by the journal here, in emission order.
func (e *Engine) emitOne(m Match, win *windowResult) {
	if win.tr != nil {
		var audit *trace.AuditResult
		if res, ok := e.auditRes[auditKey{m.StartFrame, m.QueryID}]; ok {
			audit = res
		}
		win.tr.RecordMatch(m.QueryID, m.StartFrame, m.EndFrame, m.DetectedAt, m.Windows, m.Similarity, audit)
	}
	e.emit(m)
}

// emit records a match.
func (e *Engine) emit(m Match) {
	e.stats.Matches++
	telMatches.Inc()
	e.Matches = append(e.Matches, m)
	if e.OnMatch != nil {
		e.OnMatch(m)
	}
}
