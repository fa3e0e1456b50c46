// Parallel per-window matching kernel.
//
// The queries are partitioned into nshards = max(1, Config.Workers) shards
// by qindex.ShardOf. Per basic window the engine forks once: each shard
// probes the query set for its own queries and immediately evaluates its
// own candidate state against the window — there is no barrier between the
// probe and the candidate phase because shard s's candidates only ever
// track shard s's queries. Matches produced by the shards are buffered and,
// after the join, merged in the exact order the serial kernel would have
// emitted them, so OnMatch ordering and the Matches slice are identical for
// every worker count. With Workers=0 the single shard runs inline on the
// pushing goroutine and the merge degenerates to an append — the original
// serial path, byte for byte.
package core

import (
	"sort"
	"sync"

	"vdsms/internal/bitsig"
	"vdsms/internal/qindex"
	"vdsms/internal/trace"
)

// engineShard owns the per-query mutable matching state of one query
// shard. Exactly one goroutine touches a shard during the parallel phase;
// between windows only the engine's own goroutine does.
type engineShard struct {
	id    int
	spine bool // shard 0 also accounts the query-independent spine work

	// Geometric order replica: every shard maintains the full bucket list
	// (structure is query-independent, so replicas stay congruent), with
	// per-bucket maps holding only this shard's queries.
	geo         []*geoBucket
	geoReported map[geoKey]bool

	// Per-window scratch, reset by runShards.
	newReported map[int]bool // Sequential: window-alone reports this window
	pending     []pendingMatch
	d           shardDelta

	// Reused across windows: the prober's memory (the window's related list
	// and its signatures live here until the next probe on it), the Sketch
	// method's related ids, and the sorted-key buffer of the candidate
	// walks. probe is made by the shard's first probe, or lent for one call
	// by PushFramesOn; nothing read after processWindow returns lives in it
	// (signatures that are kept are cloned out of it).
	probe *qindex.ProbeScratch
	qids  []int
	keys  []int
}

// shardDelta carries one window's operation counts out of a shard; folded
// into Stats serially after the join. Every field partitions the serial
// counter exactly (per-query work) or is accounted by one shard only
// (spine work), so Stats.Totals() is worker-count invariant.
type shardDelta struct {
	sketchCombines, sketchCompares int64
	sigOrs, sigTests               int64
	probeComparisons               int64
	signatureSum, candidateSum     int64
	probed, pruned                 int64
	// emptySearches is the window's pre-filter false-positive count
	// (admitted rows with an empty equal search). Identical on every shard
	// by construction, so only the spine's value is folded.
	emptySearches int64
	// probeNS and combineNS are this shard's stage spans for the window,
	// written by the shard itself and read after the join by the telemetry
	// fold (zero when timing is off).
	probeNS, combineNS int64
}

// pendingMatch is a shard-local match awaiting the deterministic merge.
// The (phase, start, qid) triple is unique within a window and totally
// orders the window's matches as the serial kernel emits them.
type pendingMatch struct {
	phase int8 // Sequential: 0 window-alone test, 1 candidate extension
	start int
	qid   int
	m     Match
}

// push buffers a match produced by this shard.
func (s *engineShard) push(phase int8, start, qid int, m Match) {
	s.pending = append(s.pending, pendingMatch{phase: phase, start: start, qid: qid, m: m})
}

// newMatch builds a Match the way the serial kernel's report() did.
func newMatch(qid, startFrame, endFrame, windows int, sim float64) Match {
	return Match{
		QueryID:    qid,
		StartFrame: startFrame,
		EndFrame:   endFrame,
		DetectedAt: endFrame,
		Similarity: sim,
		Windows:    windows,
	}
}

// runShards resets per-window scratch and runs fn once per shard: inline
// when there is a single shard, otherwise shard 0 on the calling goroutine
// and one goroutine per further shard, joining before returning.
func (e *Engine) runShards(fn func(*engineShard)) {
	for _, s := range e.shards {
		s.pending = s.pending[:0]
		s.d = shardDelta{}
		s.newReported = nil
	}
	if e.nshards == 1 {
		fn(e.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.nshards - 1)
	for _, s := range e.shards[1:] {
		go func(s *engineShard) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(e.shards[0])
	wg.Wait()
}

// emitPending merges the shards' buffered matches into serial emission
// order and emits them. Each shard's buffer is already sorted by the merge
// key (shards walk their candidates in spine order with query ids
// ascending), so the single-shard case skips sorting entirely.
//
// Sequential serial order: window-alone tests by ascending qid first, then
// candidate extensions by ascending candidate start (the spine is oldest
// first), qids ascending within a candidate — key (phase, start asc, qid).
// Geometric serial order: the window-alone bucket has the maximal start and
// each cascade step extends further into the past — key (start desc, qid).
func (e *Engine) emitPending(win *windowResult) {
	if e.nshards == 1 {
		for _, pm := range e.shards[0].pending {
			e.emitOne(pm, win)
		}
		return
	}
	n := 0
	for _, s := range e.shards {
		n += len(s.pending)
	}
	if n == 0 {
		return
	}
	all := make([]pendingMatch, 0, n)
	for _, s := range e.shards {
		all = append(all, s.pending...)
	}
	if e.cfg.Order == Sequential {
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.phase != b.phase {
				return a.phase < b.phase
			}
			if a.start != b.start {
				return a.start < b.start
			}
			return a.qid < b.qid
		})
	} else {
		sort.Slice(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.start != b.start {
				return a.start > b.start
			}
			return a.qid < b.qid
		})
	}
	for _, pm := range all {
		e.emitOne(pm, win)
	}
}

// emitOne records the match's provenance (when tracing is on) and emits
// it. Match ids are assigned by the journal here, in emission order, so
// ids as well as records are worker-count invariant.
func (e *Engine) emitOne(pm pendingMatch, win *windowResult) {
	if win.tr != nil {
		var audit *trace.AuditResult
		if res, ok := e.auditRes[auditKey{pm.start, pm.qid}]; ok {
			audit = res
		}
		win.tr.RecordMatch(pm.qid, pm.m.StartFrame, pm.m.EndFrame,
			pm.m.DetectedAt, pm.m.Windows, pm.m.Similarity, audit)
	}
	e.emit(pm.m)
}

// foldShardStats folds the window's per-shard deltas into the engine
// counters and the cumulative per-shard breakdown.
func (e *Engine) foldShardStats() {
	for i, s := range e.shards {
		d := s.d
		e.stats.SketchCombines += d.sketchCombines
		e.stats.SketchCompares += d.sketchCompares
		e.stats.SigOrs += d.sigOrs
		e.stats.SigTests += d.sigTests
		e.stats.ProbeComparisons += d.probeComparisons
		e.stats.SignatureSum += d.signatureSum
		e.stats.CandidateSum += d.candidateSum
		sh := &e.stats.Shards[i]
		sh.Probed += d.probed
		sh.Pruned += d.pruned
		sh.Compared += d.sigTests + d.sketchCompares
		e.telShardCompared[i].Add(d.sigTests + d.sketchCompares)
		telProbeRelated.Add(d.probed)
		telProbePruned.Add(d.pruned)
		if s.spine && d.emptySearches > 0 {
			e.pfEmptySearches += d.emptySearches
			telPrefilterFP.Add(d.emptySearches)
		}
	}
}

// allEmpty reports whether every shard slot of a per-shard signature map
// slice is empty (the candidate tracks no query anywhere).
func allEmptySigs(slots []map[int]*bitsig.Signature) bool {
	for _, m := range slots {
		if len(m) > 0 {
			return false
		}
	}
	return true
}

// allEmptySets is allEmptySigs for related-set slots.
func allEmptySets(slots []map[int]bool) bool {
	for _, m := range slots {
		if len(m) > 0 {
			return false
		}
	}
	return true
}
