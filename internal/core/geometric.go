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

// geometric implements Geometric order. The arriving window is tested
// alone, then cascaded through the stored buckets newest→oldest, testing
// each cumulative suffix; storage is updated binary-counter style.
func (e *Engine) geometric(win *windowResult, view *queryPlane) {
	nb := e.newGeoBucket(win)

	// Test the window alone.
	e.testGeo(win, nb, view)

	// Transient cascade: suffix = window ∪ newest ∪ next ∪ ...
	maxW := win.maxW
	acc := nb
	for i := len(e.geo) - 1; i >= 0; i-- {
		if acc.windows+e.geo[i].windows > maxW {
			break
		}
		acc = e.mergeGeo(win, e.geo[i], acc, view)
		e.testGeo(win, acc, view)
	}

	// Storage update: push the size-1 bucket, merge equal-size neighbours.
	// Merges whose result would exceed the λL bound are pointless (such a
	// candidate can never match any query) and would starve the cascade,
	// so they are suppressed.
	e.geo = append(e.geo, e.cloneGeo(nb))
	if win.tr != nil {
		win.tr.Serial().Add(trace.Born, -1, nb.startFrame, nb.endFrame, 1, -1, 0)
	}
	for n := len(e.geo); n >= 2 &&
		e.geo[n-1].windows >= e.geo[n-2].windows &&
		e.geo[n-1].windows+e.geo[n-2].windows <= maxW; n = len(e.geo) {
		merged := e.mergeGeo(win, e.geo[n-2], e.geo[n-1], view)
		e.geo = append(e.geo[:n-2], merged)
	}
	// Expire the oldest buckets beyond the λL bound.
	total := 0
	for _, b := range e.geo {
		total += b.windows
	}
	for len(e.geo) > 0 && total > maxW {
		total -= e.geo[0].windows
		if win.tr != nil {
			b := e.geo[0]
			win.tr.Serial().Add(trace.Expired, -1, b.startFrame, b.endFrame, b.windows, -1, 0)
		}
		e.geo = e.geo[1:]
	}

	// Accounting over the stored buckets.
	var sigCount int64
	for _, b := range e.geo {
		if e.cfg.Method == Bit {
			sigCount += int64(len(b.sigs))
		} else {
			sigCount += int64(len(b.related))
		}
	}
	e.stats.SignatureSum += sigCount
	e.stats.CandidateSum += int64(len(e.geo))

	// Periodically sweep the dedup map of entries too old to recur.
	if e.stats.Windows%64 == 0 {
		horizon := win.endFrame - (maxW+1)*e.cfg.WindowFrames
		for k := range e.geoReported {
			if k.start < horizon {
				delete(e.geoReported, k)
			}
		}
	}
}

// newGeoBucket wraps the arriving window as a size-1 bucket holding the
// probe results. The bucket is transient: its signatures (and sketch)
// belong to the window and its probe scratch, and only cloneGeo's copy of
// it may be stored.
func (e *Engine) newGeoBucket(win *windowResult) *geoBucket {
	b := &geoBucket{
		startFrame: win.startFrame,
		endFrame:   win.endFrame,
		windows:    1,
	}
	if e.cfg.Method == Bit {
		b.sigs = make(map[int]*bitsig.Signature, len(win.related))
		for _, r := range win.related {
			b.sigs[r.QID] = r.Sig
		}
	} else {
		b.sketch = win.sketch
		b.related = make(map[int]bool, len(win.qids))
		for _, qid := range win.qids {
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
func (e *Engine) mergeGeo(win *windowResult, old, new_ *geoBucket, view *queryPlane) *geoBucket {
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
					win.tr.Query().Add(trace.Expired, qid, out.startFrame, out.endFrame, out.windows, -1, 0)
				}
				continue
			}
			sig := a.Clone()
			sig.Or(b)
			e.stats.SigOrs++
			if !e.cfg.DisablePrune && sig.Prunable(e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(sig.LessCount()) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Query().Add(trace.Pruned, qid, out.startFrame, out.endFrame, out.windows, sig.Similarity(), margin)
				}
				e.stats.Pruned++
				continue
			}
			out.sigs[qid] = sig
		}
		return out
	}
	out.sketch = minhash.Combined(old.sketch, new_.sketch)
	e.stats.SketchCombines++
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
				win.tr.Query().Add(trace.Expired, qid, out.startFrame, out.endFrame, out.windows, -1, 0)
			}
			delete(out.related, qid)
		}
	}
	return out
}

// testGeo evaluates one (possibly transient) candidate against its tracked
// queries, buffering threshold crossings once per (query, start).
func (e *Engine) testGeo(win *windowResult, b *geoBucket, view *queryPlane) {
	if e.cfg.Method == Bit {
		e.keys = sortedKeys(e.keys, b.sigs)
		for _, qid := range e.keys {
			sig := b.sigs[qid]
			q := view.lookup(qid)
			if q == nil || b.windows > e.maxWindowsOf(q) {
				continue
			}
			e.stats.SigTests++
			sim := sig.Similarity()
			e.traceGeoTest(win, b, qid, sim)
			if sim < e.cfg.Delta {
				continue
			}
			k := geoKey{qid: qid, start: b.startFrame}
			if !e.geoReported[k] {
				e.geoReported[k] = true
				e.pending = append(e.pending, newMatch(qid, b.startFrame, b.endFrame, b.windows, sim))
			}
		}
		return
	}
	e.keys = sortedKeys(e.keys, b.related)
	for _, qid := range e.keys {
		q := view.lookup(qid)
		if q == nil || b.windows > e.maxWindowsOf(q) {
			continue
		}
		eq, _ := minhash.CompareCounts(b.sketch, q.sketch)
		e.stats.SketchCompares++
		sim := float64(eq) / float64(e.cfg.K)
		e.traceGeoTest(win, b, qid, sim)
		if sim < e.cfg.Delta {
			continue
		}
		k := geoKey{qid: qid, start: b.startFrame}
		if !e.geoReported[k] {
			e.geoReported[k] = true
			e.pending = append(e.pending, newMatch(qid, b.startFrame, b.endFrame, b.windows, sim))
		}
	}
}

// traceGeoTest records the lifecycle events of one geometric candidate
// test: the Extended estimate point, plus the Reported / NearMiss decision
// with the same once-per-(query, start) dedup the match buffer applies.
func (e *Engine) traceGeoTest(win *windowResult, b *geoBucket, qid int, sim float64) {
	if win.tr == nil {
		return
	}
	l := win.tr.Query()
	l.Add(trace.Extended, qid, b.startFrame, b.endFrame, b.windows, sim, 0)
	if e.geoReported[geoKey{qid: qid, start: b.startFrame}] {
		return
	}
	if sim >= e.cfg.Delta {
		l.Add(trace.Reported, qid, b.startFrame, b.endFrame, b.windows, sim, 0)
	} else if sim >= e.cfg.Delta-win.nearEps {
		l.Add(trace.NearMiss, qid, b.startFrame, b.endFrame, b.windows, sim, e.cfg.Delta-sim)
	}
}
