package core

import (
	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
	"vdsms/internal/trace"
)

// geoBucket is one stored candidate of the Geometric order: a contiguous
// chunk of basic windows whose sketch (and, for the Bit method, per-query
// signatures) have been pre-combined. The stored buckets form a binary
// counter — sizes grow geometrically from newest to oldest — so an arriving
// window only touches ⌈log i⌉ of them (paper Figures 2 and 3).
//
// Under the parallel kernel every shard maintains its own replica of the
// bucket list. Bucket boundaries, merges and expiry depend only on window
// counts and the global λL bound — never on query content — so the
// replicas' structures stay congruent; each replica's maps hold only the
// owning shard's queries.
type geoBucket struct {
	startFrame, endFrame int
	windows              int
	// Sketch method state: combined sketch plus the tracked query set.
	sketch  minhash.Sketch
	related map[int]bool
	// Bit method state: one signature per tracked query (no sketch is
	// maintained — all hot-path work is bit operations).
	sigs map[int]*bitsig.Signature
}

// geoKey identifies a (query, candidate start) pair for match dedup across
// the transient cascade evaluations.
type geoKey struct {
	qid   int
	start int
}

// shardGeometric implements Geometric order for one shard's replica. The
// arriving window is tested alone, then cascaded through the stored
// buckets newest→oldest, testing each cumulative suffix; storage is
// updated binary-counter style. Per-query work (signature ors, sketch
// compares, match tests) touches only the shard's queries and therefore
// partitions across shards; the Sketch method's per-bucket sketch combines
// are replicated per shard and accounted by shard 0 alone so the totals
// stay worker-count invariant.
func (e *Engine) shardGeometric(s *engineShard, win *windowResult, view *queryPlane) {
	if s.geoReported == nil {
		s.geoReported = make(map[geoKey]bool)
	}
	nb := e.newGeoBucket(s, win)

	// Test the window alone.
	e.testGeo(s, win, nb, view)

	// Transient cascade: suffix = window ∪ newest ∪ next ∪ ...
	maxW := win.maxW
	acc := nb
	for i := len(s.geo) - 1; i >= 0; i-- {
		if acc.windows+s.geo[i].windows > maxW {
			break
		}
		acc = e.mergeGeo(s, win, s.geo[i], acc, view)
		e.testGeo(s, win, acc, view)
	}

	// Storage update: push the size-1 bucket, merge equal-size neighbours.
	// Merges whose result would exceed the λL bound are pointless (such a
	// candidate can never match any query) and would starve the cascade,
	// so they are suppressed.
	s.geo = append(s.geo, e.cloneGeo(nb))
	if win.tr != nil && s.spine {
		win.tr.Serial().Add(trace.Born, -1, nb.startFrame, nb.endFrame, 1, -1, 0)
	}
	for n := len(s.geo); n >= 2 &&
		s.geo[n-1].windows >= s.geo[n-2].windows &&
		s.geo[n-1].windows+s.geo[n-2].windows <= maxW; n = len(s.geo) {
		merged := e.mergeGeo(s, win, s.geo[n-2], s.geo[n-1], view)
		s.geo = append(s.geo[:n-2], merged)
	}
	// Expire the oldest buckets beyond the λL bound.
	total := 0
	for _, b := range s.geo {
		total += b.windows
	}
	for len(s.geo) > 0 && total > maxW {
		total -= s.geo[0].windows
		if win.tr != nil && s.spine {
			b := s.geo[0]
			win.tr.Serial().Add(trace.Expired, -1, b.startFrame, b.endFrame, b.windows, -1, 0)
		}
		s.geo = s.geo[1:]
	}

	// Accounting: per-query state sums across shards; the candidate count
	// is structural (identical replicas) and counted by shard 0 only.
	var sigCount int64
	for _, b := range s.geo {
		if e.cfg.Method == Bit {
			sigCount += int64(len(b.sigs))
		} else {
			sigCount += int64(len(b.related))
		}
	}
	s.d.signatureSum += sigCount
	if s.spine {
		s.d.candidateSum += int64(len(s.geo))
	}

	// Periodically sweep the dedup map of entries too old to recur.
	if e.stats.Windows%64 == 0 {
		horizon := win.endFrame - (maxW+1)*e.cfg.WindowFrames
		for k := range s.geoReported {
			if k.start < horizon {
				delete(s.geoReported, k)
			}
		}
	}
}

// newGeoBucket wraps the arriving window as a size-1 bucket holding the
// shard's slice of the probe results. The bucket is transient: its
// signatures (and sketch) belong to the window and its probe scratch, and
// only cloneGeo's copy of it may be stored.
func (e *Engine) newGeoBucket(s *engineShard, win *windowResult) *geoBucket {
	b := &geoBucket{
		startFrame: win.startFrame,
		endFrame:   win.endFrame,
		windows:    1,
	}
	if e.cfg.Method == Bit {
		rel := win.relatedSh[s.id]
		b.sigs = make(map[int]*bitsig.Signature, len(rel))
		for _, r := range rel {
			b.sigs[r.QID] = r.Sig
		}
	} else {
		b.sketch = win.sketch
		qids := win.qidsSh[s.id]
		b.related = make(map[int]bool, len(qids))
		for _, qid := range qids {
			b.related[qid] = true
		}
	}
	return b
}

// cloneGeo deep-copies a bucket so stored state never aliases transient
// cascade state.
func (e *Engine) cloneGeo(b *geoBucket) *geoBucket {
	c := &geoBucket{
		startFrame: b.startFrame,
		endFrame:   b.endFrame,
		windows:    b.windows,
		sketch:     b.sketch.Clone(),
	}
	if b.sigs != nil {
		c.sigs = make(map[int]*bitsig.Signature, len(b.sigs))
		for qid, s := range b.sigs {
			c.sigs[qid] = s.Clone()
		}
	}
	if b.related != nil {
		c.related = make(map[int]bool, len(b.related))
		for qid := range b.related {
			c.related[qid] = true
		}
	}
	return c
}

// mergeGeo combines an older bucket with a newer one into a fresh bucket.
// Under the Bit method a query survives the merge only when both sides
// track it (the paper's candidates keep signatures of queries related to
// their consecutive candidate sequences; true-copy windows always stay
// related, so this costs no detectable copies), and no sketch operations
// are performed at all — the asymmetry behind the Fig. 6 CPU split.
func (e *Engine) mergeGeo(s *engineShard, win *windowResult, old, new_ *geoBucket, view *queryPlane) *geoBucket {
	out := &geoBucket{
		startFrame: old.startFrame,
		endFrame:   new_.endFrame,
		windows:    old.windows + new_.windows,
	}
	if e.cfg.Method == Bit {
		out.sigs = make(map[int]*bitsig.Signature)
		for qid, a := range old.sigs {
			b := new_.sigs[qid]
			if b == nil {
				continue
			}
			q := view.lookup(qid)
			if q == nil || out.windows > e.maxWindowsOf(q) {
				if win.tr != nil {
					win.tr.Shard(s.id).Add(trace.Expired, qid, out.startFrame, out.endFrame, out.windows, -1, 0)
				}
				continue
			}
			sig := a.Clone()
			sig.Or(b)
			s.d.sigOrs++
			if !e.cfg.DisablePrune && sig.Prunable(e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(sig.LessCount()) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Shard(s.id).Add(trace.Pruned, qid, out.startFrame, out.endFrame, out.windows, sig.Similarity(), margin)
				}
				s.d.pruned++
				continue
			}
			out.sigs[qid] = sig
		}
		return out
	}
	// Every replica combines its own copy of the sketch (duplicated CPU,
	// but off the per-query critical path); only the spine shard counts it.
	out.sketch = minhash.Combined(old.sketch, new_.sketch)
	if s.spine {
		s.d.sketchCombines++
	}
	out.related = make(map[int]bool)
	for qid := range old.related {
		out.related[qid] = true
	}
	for qid := range new_.related {
		out.related[qid] = true
	}
	for qid := range out.related {
		q := view.lookup(qid)
		if q == nil || out.windows > e.maxWindowsOf(q) {
			if win.tr != nil {
				win.tr.Shard(s.id).Add(trace.Expired, qid, out.startFrame, out.endFrame, out.windows, -1, 0)
			}
			delete(out.related, qid)
		}
	}
	return out
}

// testGeo evaluates one (possibly transient) candidate against the shard's
// tracked queries, buffering threshold crossings once per (query, start).
func (e *Engine) testGeo(s *engineShard, win *windowResult, b *geoBucket, view *queryPlane) {
	if e.cfg.Method == Bit {
		s.keys = sortedKeys(s.keys, b.sigs)
		for _, qid := range s.keys {
			sig := b.sigs[qid]
			q := view.lookup(qid)
			if q == nil || b.windows > e.maxWindowsOf(q) {
				continue
			}
			s.d.sigTests++
			sim := sig.Similarity()
			e.traceGeoTest(s, win, b, qid, sim)
			if sim < e.cfg.Delta {
				continue
			}
			k := geoKey{qid: qid, start: b.startFrame}
			if !s.geoReported[k] {
				s.geoReported[k] = true
				s.push(0, b.startFrame, qid, newMatch(qid, b.startFrame, b.endFrame, b.windows, sim))
			}
		}
		return
	}
	s.keys = sortedKeys(s.keys, b.related)
	for _, qid := range s.keys {
		q := view.lookup(qid)
		if q == nil || b.windows > e.maxWindowsOf(q) {
			continue
		}
		eq, _ := minhash.CompareCounts(b.sketch, q.sketch)
		s.d.sketchCompares++
		sim := float64(eq) / float64(e.cfg.K)
		e.traceGeoTest(s, win, b, qid, sim)
		if sim < e.cfg.Delta {
			continue
		}
		k := geoKey{qid: qid, start: b.startFrame}
		if !s.geoReported[k] {
			s.geoReported[k] = true
			s.push(0, b.startFrame, qid, newMatch(qid, b.startFrame, b.endFrame, b.windows, sim))
		}
	}
}

// traceGeoTest records the lifecycle events of one geometric candidate
// test: the Extended estimate point, plus the Reported / NearMiss decision
// with the same once-per-(query, start) dedup the match buffer applies.
func (e *Engine) traceGeoTest(s *engineShard, win *windowResult, b *geoBucket, qid int, sim float64) {
	if win.tr == nil {
		return
	}
	l := win.tr.Shard(s.id)
	l.Add(trace.Extended, qid, b.startFrame, b.endFrame, b.windows, sim, 0)
	if s.geoReported[geoKey{qid: qid, start: b.startFrame}] {
		return
	}
	if sim >= e.cfg.Delta {
		l.Add(trace.Reported, qid, b.startFrame, b.endFrame, b.windows, sim, 0)
	} else if sim >= e.cfg.Delta-win.nearEps {
		l.Add(trace.NearMiss, qid, b.startFrame, b.endFrame, b.windows, sim, e.cfg.Delta-sim)
	}
}
