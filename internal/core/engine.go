package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"vdsms/internal/minhash"
	"vdsms/internal/perfobs"
	"vdsms/internal/qindex"
	"vdsms/internal/telemetry"
	"vdsms/internal/trace"
)

// queryInfo is the per-query state held by a QuerySet.
type queryInfo struct {
	id     int
	frames int // length L in key frames
	sketch minhash.Sketch
	// cellIDs retains the query's raw cell ids for the sampled exact audit
	// (trace.go). Nil for queries restored from a VQS1 stream — the format
	// carries sketches only — in which case their decisions are audit-skipped.
	cellIDs []uint64
}

// Engine is the streaming detector for one stream. It consumes one cell id
// per key frame via PushFrame (or batches via PushFrames); matches are
// delivered to the OnMatch callback (if set) and accumulated in Matches.
//
// An Engine is not safe for concurrent use — its intra-stream parallelism
// is configured with Config.Workers and managed internally — but engines
// sharing a QuerySet may run in parallel goroutines: each window captures
// the set's current immutable plane with one atomic load and probes it
// without locks. The query set holds no lock during window processing;
// AddQuery/RemoveQuery publish a successor plane that takes effect at the
// next window.
type Engine struct {
	cfg     Config
	qs      *QuerySet
	nshards int

	// Stream state.
	frame  int      // key frames consumed
	curIDs []uint64 // ids of the window being filled
	// planeVersion is the query-plane version the most recent window was
	// processed against — the whole window runs on one captured plane, so
	// this is the observable face of the copy-on-write churn contract.
	planeVersion uint64

	// seq is the Sequential order candidate list C_L — the spine. Scalar
	// fields and the combined sketch are maintained serially; per-query
	// state lives in per-shard slots owned by one worker each.
	seq []*seqCandidate
	// shards own the per-query mutable state of the matching kernel
	// (Geometric buckets are replicated per shard; see geometric.go).
	shards []*engineShard
	// win is the per-window record, reused so that its per-shard slices are
	// allocated once.
	win windowResult

	stats   Stats
	Matches []Match
	// OnMatch, when non-nil, is invoked synchronously for every match, on
	// the goroutine calling PushFrame/PushFrames/Flush.
	OnMatch func(Match)

	// SlowWindow, when positive, arms the slow-window tracer: any basic
	// window whose processing exceeds it is reported through OnSlowWindow
	// with a per-stage breakdown. Set both before pushing frames.
	SlowWindow time.Duration
	// SlowVar, when non-nil, overrides SlowWindow with a runtime-adjustable
	// budget read once per window (shared across a detector lineage so
	// POST /debug/slow-window reaches every live engine).
	SlowVar *SlowBudget
	// OnSlowWindow receives slow-window traces; invoked synchronously on
	// the pushing goroutine, so keep it cheap.
	OnSlowWindow func(SlowWindowTrace)
	// OnWindowDone, when non-nil, receives every basic window's total
	// processing duration, synchronously on the pushing goroutine — the
	// overload controller's feed. Setting it forces the timed path (the
	// same clock reads telemetry uses), so leave it nil unless a consumer
	// is actually listening.
	OnWindowDone func(total time.Duration)

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

	// telShardCompared are this engine's per-shard comparison counters
	// (shared process-wide by shard id via the telemetry registry).
	telShardCompared []*telemetry.Counter

	// perf is the span collector this engine samples into (nil = spans
	// off; see SetPerf) and perfLabel the stream label on exported spans.
	// pendingSpanNS stages out-of-kernel stage durations (front-end
	// decode/extract from the facade, queue-wait/worker-hop from the fleet)
	// for the next processed window; consumed — sampled or not — at the
	// window's start so stale spans never leak across windows.
	perf          *perfobs.Collector
	perfLabel     string
	pendingSpanNS [perfobs.NumStages]int64

	// Pre-filter accounting for this engine's windows, outside Stats so
	// the snapshot codec is untouched (the tier is a runtime choice).
	// pfRowProbes/pfRowRejects accrue serially in processWindow;
	// pfEmptySearches is folded from the spine shard after the join.
	pfRowProbes, pfRowRejects, pfEmptySearches int64
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
// concurrent stream). cfg.K must match the set's K; cfg.Seed and
// cfg.UseIndex are taken from the set.
func NewEngineWith(cfg Config, qs *QuerySet) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K != qs.K() {
		return nil, fmt.Errorf("core: engine K=%d but query set K=%d", cfg.K, qs.K())
	}
	return newEngine(cfg, qs), nil
}

func newEngine(cfg Config, qs *QuerySet) *Engine {
	n := cfg.Workers
	if n < 1 {
		n = 1
	}
	if cfg.PreFilter {
		// Idempotent; with a shared QuerySet the first pre-filter engine
		// turns the tier on for every sharer (it is output-neutral).
		qs.EnablePreFilter()
	}
	e := &Engine{cfg: cfg, qs: qs, nshards: n}
	e.win.relatedSh = make([][]qindex.Result, n)
	e.win.qidsSh = make([][]int, n)
	e.shards = make([]*engineShard, n)
	e.telShardCompared = make([]*telemetry.Counter, n)
	for i := range e.shards {
		e.shards[i] = &engineShard{id: i, spine: i == 0}
		e.telShardCompared[i] = shardComparedCounter(i)
	}
	e.stats.Shards = make([]ShardStats, n)
	return e
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Queries returns the engine's query set (shared or private).
func (e *Engine) Queries() *QuerySet { return e.qs }

// Family exposes the hash family so callers can sketch query material with
// identical functions.
func (e *Engine) Family() *minhash.Family { return e.qs.Family() }

// Stats returns a snapshot of the operation counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	st.Shards = append([]ShardStats(nil), e.stats.Shards...)
	return st
}

// PreFilterStats reports the pre-filter tier's activity: this engine's
// row-probe outcomes plus the shared filter's current footprint. Zero
// values throughout when the tier is off.
type PreFilterStats struct {
	// Enabled reports whether the tier is active on the query set.
	Enabled bool
	// RowProbes and RowRejects count this engine's per-window filter
	// tests and O(1) rejections; RowRejects/RowProbes is the fraction of
	// per-row candidate walks skipped before any index work.
	RowProbes, RowRejects int64
	// EmptySearches counts admitted rows whose equal search found nothing
	// — the filter's false positives (each costs one wasted binary search).
	EmptySearches int64
	// Bytes and Keys describe the shared filter's current footprint;
	// Rebuilds counts churn-triggered reconstructions.
	Bytes, Keys int
	Rebuilds    int64
}

// PreFilterStats returns the tier's accounting for this engine and its
// query set.
func (e *Engine) PreFilterStats() PreFilterStats {
	bytes, keys, rebuilds, enabled := e.qs.preFilterStats()
	return PreFilterStats{
		Enabled:       enabled,
		RowProbes:     e.pfRowProbes,
		RowRejects:    e.pfRowRejects,
		EmptySearches: e.pfEmptySearches,
		Bytes:         bytes,
		Keys:          keys,
		Rebuilds:      rebuilds,
	}
}

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
// the per-frame call overhead, which matters once window processing fans
// out to workers.
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

// PushFramesOn is PushFrames with the probes of a serial engine running on
// ps, a scratch the caller owns and may hand to its next engine as soon as
// the call returns — how a pool worker that drives many engines one at a
// time keeps one scratch instead of one per stream. An engine with
// Config.Workers > 0 probes on its shards' own scratches and ignores ps.
func (e *Engine) PushFramesOn(ps *qindex.ProbeScratch, cellIDs []uint64) {
	s := e.shards[0]
	if e.nshards == 1 {
		own := s.probe
		s.probe = ps
		defer func() { s.probe = own }()
	}
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
func (e *Engine) maxWindowsOf(q *queryInfo) int { return e.cfg.maxWindows(q.frames) }

// processWindow sketches the filled window, fans the probe and candidate
// evaluation out across the query shards, and merges the shards' matches
// deterministically. With Workers=0 the single shard runs inline and the
// merge is the identity — the original serial path.
//
// Stage timing (sketch → probe → combine → merge, plus the window total)
// runs when telemetry is enabled or the slow-window tracer is armed: two
// clock reads per serial stage and two per shard, feeding the
// vcd_stage_duration_seconds histograms and OnSlowWindow. The timed path
// allocates nothing beyond what the untimed kernel already does.
func (e *Engine) processWindow() {
	e.stats.Windows++
	telWindows.Inc()
	// Span sampling: one atomic load when the collector is armed but this
	// window loses the cadence draw; nothing at all when perf is unset.
	var sp *perfobs.Span
	if e.perf != nil {
		sp = e.perf.Begin(e.perfLabel)
		if sp != nil {
			sp.NS = e.pendingSpanNS
		}
		e.pendingSpanNS = [perfobs.NumStages]int64{}
	}
	slow := e.slowBudget()
	timed := telemetry.Enabled() || (slow > 0 && e.OnSlowWindow != nil) || e.OnWindowDone != nil || sp != nil
	var t0, t1 time.Time
	if timed {
		t0 = time.Now()
	}
	wsk := e.qs.Family().SketchSet(e.curIDs)
	var sketchD time.Duration
	if timed {
		t1 = time.Now()
		sketchD = t1.Sub(t0)
	}
	sp.AllocMark(perfobs.StageSketch)
	// The entire window is processed against one immutable plane captured
	// here with a single atomic load: probes, candidate evaluation and the
	// pre-filter mask all see the same subscription version even while a
	// concurrent AddQueries/Remove publishes a successor. In-flight windows
	// therefore stay on the old version; churn lands at the next window.
	view := e.qs.view()
	e.planeVersion = view.version
	win := &e.win
	clear(win.relatedSh)
	clear(win.qidsSh)
	*win = windowResult{
		sketch:     wsk,
		startFrame: e.curWindowStartFrame(),
		endFrame:   e.frame,
		maxW:       e.globalMaxWindows(view),
		relatedSh:  win.relatedSh,
		qidsSh:     win.qidsSh,
	}
	// The pre-filter row mask is computed once, serially, before the shard
	// fork: it depends only on the window sketch (not the shard), so doing
	// it here avoids K×nshards redundant filter probes and keeps the mask —
	// and hence the probe output — identical for every worker count.
	if e.cfg.PreFilter && len(view.queries) > 0 {
		mask, probed, rejected := view.windowRowMask(wsk)
		win.rowMask = mask
		e.pfRowProbes += int64(probed)
		e.pfRowRejects += int64(rejected)
		telPrefilterProbes.Add(int64(probed))
		telPrefilterRejects.Add(int64(rejected))
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

	if e.cfg.Order == Sequential {
		e.seqPrePass(win)
	}
	// The serial spine work before the fork accrues to the merge stage,
	// together with its post-join counterpart below.
	var preD time.Duration
	if timed {
		preD = time.Since(t1)
	}

	e.runShards(func(s *engineShard) {
		var ts time.Time
		if timed {
			ts = time.Now()
		}
		if len(view.queries) > 0 {
			e.probeShard(s, win, wsk, view)
		}
		if timed {
			now := time.Now()
			s.d.probeNS = now.Sub(ts).Nanoseconds()
			ts = now
		}
		switch e.cfg.Order {
		case Sequential:
			e.shardSequential(s, win, view)
		default:
			e.shardGeometric(s, win, view)
		}
		if timed {
			s.d.combineNS = time.Since(ts).Nanoseconds()
		}
	})
	// The shard fork's allocations (probe + combine interleave across
	// workers) are attributed to the probe stage as one block.
	sp.AllocMark(perfobs.StageProbe)

	var tMerge time.Time
	if timed {
		tMerge = time.Now()
	}
	if e.cfg.Order == Sequential {
		e.seqPostPass(win, view)
	}
	if win.tr != nil {
		evs := win.tr.FoldWindow()
		if e.auditEvery > 0 {
			e.auditWindow(evs, view)
		}
		win.tr.Publish(evs)
	}
	e.emitPending(win)
	e.foldShardStats()
	sp.AllocMark(perfobs.StageMerge)
	if timed {
		end := time.Now()
		total := end.Sub(t0)
		e.observeWindow(win, slow, sketchD, preD+end.Sub(tMerge), total, sp)
		if e.OnWindowDone != nil {
			e.OnWindowDone(total)
		}
	}
}

// probeShard determines shard s's related queries for the window: bit
// signatures in query-id order under the Bit method, sorted query ids under
// Sketch. Both live in the shard's probe scratch until its next window.
func (e *Engine) probeShard(s *engineShard, win *windowResult, wsk minhash.Sketch, view *queryPlane) {
	if e.cfg.Method == Sketch && !view.usingIndex() {
		ids := s.qids[:0]
		for id := range view.queries {
			if qindex.ShardOf(id, e.nshards) == s.id {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		s.qids, win.qidsSh[s.id] = ids, ids
		return
	}
	if s.probe == nil {
		s.probe = new(qindex.ProbeScratch)
	}
	po, scanned := view.probeShard(s.probe, wsk, e.pruneDelta(), s.id, e.nshards, win.rowMask)
	s.d.sketchCompares += int64(scanned)
	s.d.probeComparisons += int64(po.Comparisons)
	s.d.probed += int64(len(po.Related))
	s.d.pruned += int64(len(po.Pruned))
	// Every shard of one window observes the same empty-search count (row
	// emptiness is shard-independent); the spine's copy is folded into the
	// engine counter and telemetry after the join.
	if s.spine {
		s.d.emptySearches += int64(po.EmptySearches)
	}
	slices.SortFunc(po.Related, func(a, b qindex.Result) int { return cmp.Compare(a.QID, b.QID) })
	if e.cfg.Method == Bit {
		win.relatedSh[s.id] = po.Related
		return
	}
	ids := s.qids[:0]
	for _, r := range po.Related {
		ids = append(ids, r.QID)
	}
	s.qids, win.qidsSh[s.id] = ids, ids
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
	if view.maxFrames == 0 {
		return 1
	}
	return e.cfg.maxWindows(view.maxFrames)
}

// windowResult carries everything downstream stages need about one basic
// window, partitioned by query shard.
type windowResult struct {
	sketch     minhash.Sketch
	startFrame int
	endFrame   int
	maxW       int               // global candidate bound ⌈λL_max/w⌉
	relatedSh  [][]qindex.Result // Bit: per-shard window-vs-query signatures, by query id
	qidsSh     [][]int           // Sketch: per-shard related query ids, sorted
	// rowMask is the pre-filter admission mask, computed once per window
	// before the shard fork; nil (admit all rows) when the tier is off.
	rowMask qindex.RowMask
	// tr is the lifecycle-event recorder for this window, nil when tracing
	// is off — the single guard every kernel recording site checks.
	tr      *trace.Recorder
	nearEps float64 // near-miss band: estimates in [δ−ε, δ) are journaled
}

// relatedLen returns the total number of related queries across shards.
func (w *windowResult) relatedLen() int {
	n := 0
	for _, m := range w.relatedSh {
		n += len(m)
	}
	for _, ids := range w.qidsSh {
		n += len(ids)
	}
	return n
}

// emit records a merged match.
func (e *Engine) emit(m Match) {
	e.stats.Matches++
	telMatches.Inc()
	e.Matches = append(e.Matches, m)
	if e.OnMatch != nil {
		e.OnMatch(m)
	}
}
