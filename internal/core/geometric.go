package core

import (
	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
	"vdsms/internal/trace"
)

// geoBucket is one stored candidate of the Geometric order: a contiguous
// chunk of basic windows whose sketch (Sketch method) or per-query
// signatures (Bit method, where no sketch is maintained — all hot-path work
// is bit operations) have been pre-combined. The stored buckets form a
// binary counter — sizes grow geometrically from newest to oldest — so an
// arriving window only touches ⌈log i⌉ of them (paper Figures 2 and 3). No
// step mutates a bucket once it is built, so the cascade's transient
// buckets and the stored ones share freely.
type geoBucket struct {
	startFrame, endFrame int
	windows              int
	sketch               minhash.Sketch
	tracked
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
	e.geo = append(e.geo, nb)
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
		sigCount += int64(len(b.ids))
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

// newGeoBucket wraps the arriving window as a size-1 bucket holding its own
// copy of the probe results.
func (e *Engine) newGeoBucket(win *windowResult) *geoBucket {
	b := &geoBucket{
		startFrame: win.startFrame,
		endFrame:   win.endFrame,
		windows:    1,
		tracked:    e.windowTracked(win),
	}
	if e.cfg.Method == Sketch {
		b.sketch = win.sketch.Clone()
	}
	return b
}

// mergeGeo combines an older bucket with a newer one into a fresh bucket by
// one merge walk over their lists. Under the Bit method a query survives the
// merge only when both sides track it (the paper's candidates keep
// signatures of queries related to their consecutive candidate sequences;
// true-copy windows always stay related, so this costs no detectable
// copies), and no sketch operations are performed at all — the asymmetry
// behind the Fig. 6 CPU split. Under the Sketch method the lists are
// unioned. Either way a query that can no longer match the merged size is
// expired.
func (e *Engine) mergeGeo(win *windowResult, old, new_ *geoBucket, view *queryPlane) *geoBucket {
	out := &geoBucket{
		startFrame: old.startFrame,
		endFrame:   new_.endFrame,
		windows:    old.windows + new_.windows,
	}
	bit := e.cfg.Method == Bit
	if bit {
		out.sigs = bitsig.NewBlock(e.cfg.K, min(len(old.ids), len(new_.ids)))
	} else {
		out.sketch = minhash.Combined(old.sketch, new_.sketch)
		e.stats.SketchCombines++
	}
	a, b := old.ids, new_.ids
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var qid int
		both := false
		switch {
		case j == len(b) || i < len(a) && a[i] < b[j]:
			qid, i = a[i], i+1
		case i == len(a) || b[j] < a[i]:
			qid, j = b[j], j+1
		default:
			qid, both, i, j = a[i], true, i+1, j+1
		}
		if bit && !both {
			continue // tracked on one side only
		}
		if !e.live(view.index.Lookup(qid), out.windows) {
			expire(win, qid, out.startFrame, out.endFrame, out.windows)
			continue
		}
		if bit {
			sig := &out.sigs[len(out.ids)]
			copy(sig.Lo, old.sigs[i-1].Lo)
			copy(sig.Hi, old.sigs[i-1].Hi)
			sig.Or(&new_.sigs[j-1])
			e.stats.SigOrs++
			_, eq, less := sig.Counts()
			if e.pruned(win, qid, out.startFrame, out.endFrame, out.windows, less, e.similarity(eq)) {
				continue
			}
		}
		out.ids = append(out.ids, qid)
	}
	if bit {
		out.sigs = out.sigs[:len(out.ids)]
	}
	return out
}

// testGeo evaluates one (possibly transient) candidate against its tracked
// queries, buffering threshold crossings once per (query, start).
func (e *Engine) testGeo(win *windowResult, b *geoBucket, view *queryPlane) {
	for i, qid := range b.ids {
		q := view.index.Lookup(qid)
		if !e.live(q, b.windows) {
			continue
		}
		var eq int
		if e.cfg.Method == Bit {
			e.stats.SigTests++
			_, eq, _ = b.sigs[i].Counts()
		} else {
			eq, _ = q.Sketch.CompareCounts(b.sketch)
			e.stats.SketchCompares++
		}
		k := geoKey{qid: qid, start: b.startFrame}
		if e.decide(win, qid, b.startFrame, b.endFrame, b.windows, e.similarity(eq), e.geoReported[k]) {
			e.geoReported[k] = true
		}
	}
}
