package core

import (
	"slices"

	"vdsms/internal/minhash"
	"vdsms/internal/trace"
)

// seqCandidate is one entry of the Sequential-order candidate list: the
// suffix of the stream starting at startFrame.
type seqCandidate struct {
	startFrame int
	windows    int
	// sketch is the combined candidate sketch (Sketch method only).
	sketch minhash.Sketch
	// tracked is the list of queries the candidate still tracks.
	tracked
	// reported dedups match reports per query for this candidate, ascending.
	// A query stays in it after the candidate stops tracking the query.
	reported []int
}

// seqPrePass advances the candidate list before the probe: sizes grow by
// one window, and under the Sketch method the window sketch is folded into
// each candidate's combined sketch.
func (e *Engine) seqPrePass(win *windowResult) {
	for _, c := range e.seq {
		c.windows++
		if e.cfg.Method == Sketch {
			minhash.Combine(c.sketch, win.sketch)
			e.stats.SketchCombines++
		}
	}
}

// sequential runs the Sequential kernel: the window-alone test for the
// window's related queries, then the extension of every candidate.
//
// Under the Bit method a query stays tracked only while consecutive windows
// keep it related (Section V.B): a window with no equal min-hash against q —
// or where q was Lemma 2-pruned — drops q from the candidate. Windows inside
// a true copy of q always share min-hashes with q, so this never loses a
// detectable copy. Under the Sketch method the pre-pass already combined the
// candidate sketches; here they are only compared.
func (e *Engine) sequential(win *windowResult, view *queryPlane) {
	bit := e.cfg.Method == Bit

	// (1) Test the basic window itself against its related queries.
	e.newReported = nil
	for i, qid := range win.qids {
		var eq int
		if bit {
			e.stats.SigTests++
			_, eq, _ = win.related[i].Sig.Counts()
		} else {
			eq, _ = view.index.Lookup(qid).Sketch.CompareCounts(win.sketch)
			e.stats.SketchCompares++
		}
		if e.decide(win, qid, win.startFrame, win.endFrame, 1, e.similarity(eq), false) {
			e.newReported = append(e.newReported, qid)
		}
	}

	// (2) Extend every candidate, filtering its list in place by one merge
	// walk against the window's related list. Under the Bit method a query
	// the window relates is on the window's plane and brings its length for
	// the λL bound; the plane is asked about one it does not relate only
	// when a journal must tell its expiry from its drop.
	for _, c := range e.seq {
		kept, j := 0, 0
		for i, qid := range c.ids {
			var eq, less int
			if bit {
				for j < len(win.qids) && win.qids[j] < qid {
					j++
				}
				if j == len(win.qids) || win.qids[j] != qid { // unrelated or pruned: cascade the drop
					if win.tr != nil {
						if !e.live(view.index.Lookup(qid), c.windows) {
							expire(win, qid, c.startFrame, win.endFrame, c.windows)
						} else {
							win.tr.Query().Add(trace.Dropped, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
						}
					}
					continue
				}
				if c.windows > e.cfg.maxWindows(win.related[j].Length) {
					expire(win, qid, c.startFrame, win.endFrame, c.windows)
					continue
				}
				sig := &c.sigs[i]
				sig.Or(win.related[j].Sig)
				e.stats.SigOrs++
				_, eq, less = sig.Counts()
			} else {
				q := view.index.Lookup(qid)
				if !e.live(q, c.windows) {
					expire(win, qid, c.startFrame, win.endFrame, c.windows)
					continue
				}
				eq, less = q.Sketch.CompareCounts(c.sketch)
				e.stats.SketchCompares++
			}
			sim := e.similarity(eq)
			if e.pruned(win, qid, c.startFrame, win.endFrame, c.windows, less, sim) {
				continue
			}
			if bit {
				e.stats.SigTests++
			}
			r, done := slices.BinarySearch(c.reported, qid)
			if e.decide(win, qid, c.startFrame, win.endFrame, c.windows, sim, done) {
				c.reported = slices.Insert(c.reported, r, qid)
			}
			c.ids[kept] = qid
			if bit {
				c.sigs[kept] = c.sigs[i]
			}
			kept++
		}
		c.ids = c.ids[:kept]
		if bit {
			c.sigs = c.sigs[:kept]
		}
	}
}

// seqPostPass runs after the combine: candidates that track no query any
// more are dropped, the fresh size-1 candidate is appended from the
// window's probe results, and the memory accounting is taken over the
// final list.
func (e *Engine) seqPostPass(win *windowResult) {
	kept := e.seq[:0]
	for _, c := range e.seq {
		if len(c.ids) > 0 {
			kept = append(kept, c)
		} else if win.tr != nil {
			win.tr.Serial().Add(trace.Expired, -1, c.startFrame, win.endFrame, c.windows, -1, 0)
		}
	}
	clear(e.seq[len(kept):])
	e.seq = kept

	// Fresh size-1 candidate tracking the window's related queries; its own
	// window-alone test already ran, so that test's reports seed the
	// candidate's dedup set.
	if len(win.qids) > 0 {
		c := &seqCandidate{
			startFrame: win.startFrame,
			windows:    1,
			tracked:    e.windowTracked(win),
			reported:   e.newReported,
		}
		if e.cfg.Method == Sketch {
			c.sketch = win.sketch.Clone()
		}
		e.seq = append(e.seq, c)
		if win.tr != nil {
			win.tr.Serial().Add(trace.Born, -1, c.startFrame, win.endFrame, 1, -1, 0)
		}
	}

	// Memory/candidate accounting after the window is fully folded in.
	var sigCount int64
	for _, c := range e.seq {
		sigCount += int64(len(c.ids))
	}
	e.stats.SignatureSum += sigCount
	e.stats.CandidateSum += int64(len(e.seq))
}
