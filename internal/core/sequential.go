package core

import (
	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
	"vdsms/internal/trace"
)

// seqCandidate is one entry of the Sequential-order candidate list: the
// suffix of the stream starting at startFrame.
type seqCandidate struct {
	startFrame int
	windows    int
	// Sketch method state: the combined candidate sketch.
	sketch minhash.Sketch
	// Bit method state: one signature per tracked query.
	sigs map[int]*bitsig.Signature
	// Sketch method state: the tracked query set.
	related map[int]bool
	// reported dedups match reports per query for this candidate.
	reported map[int]bool
}

// tracked returns the number of queries the candidate tracks (signatures
// for Bit, related entries for Sketch).
func (c *seqCandidate) tracked(method Method) int {
	if method == Bit {
		return len(c.sigs)
	}
	return len(c.related)
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
func (e *Engine) sequential(win *windowResult, view *queryPlane) {
	e.newReported = make(map[int]bool)
	if e.cfg.Method == Bit {
		e.seqBit(win, view)
	} else {
		e.seqSketch(win, view)
	}
}

// seqBit is the Bit-method kernel.
func (e *Engine) seqBit(win *windowResult, view *queryPlane) {
	rel := win.related

	// (1) Test the basic window itself against its related queries.
	for _, r := range rel {
		qid, sig := r.QID, r.Sig
		e.stats.SigTests++
		sim := sig.Similarity()
		if win.tr != nil {
			l := win.tr.Query()
			l.Add(trace.Extended, qid, win.startFrame, win.endFrame, 1, sim, 0)
			if sim >= e.cfg.Delta {
				l.Add(trace.Reported, qid, win.startFrame, win.endFrame, 1, sim, 0)
			} else if sim >= e.cfg.Delta-win.nearEps {
				l.Add(trace.NearMiss, qid, win.startFrame, win.endFrame, 1, sim, e.cfg.Delta-sim)
			}
		}
		if sim >= e.cfg.Delta {
			e.pending = append(e.pending, newMatch(qid, win.startFrame, win.endFrame, 1, sim))
			e.newReported[qid] = true
		}
	}

	// (2) Extend every candidate. A query stays tracked
	// only while consecutive windows keep it related (Section V.B); a window
	// with no equal min-hash against q — or where q was Lemma 2-pruned —
	// drops q from the candidate. Windows inside a true copy of q always
	// share min-hashes with q, so this never loses a detectable copy.
	for _, c := range e.seq {
		sigs := c.sigs
		e.keys = sortedKeys(e.keys, sigs)
		for _, qid := range e.keys {
			sig := sigs[qid]
			q := view.lookup(qid)
			if q == nil || c.windows > e.maxWindowsOf(q) {
				if win.tr != nil {
					win.tr.Query().Add(trace.Expired, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(sigs, qid)
				continue
			}
			wsig := findSig(rel, qid)
			if wsig == nil { // unrelated or pruned: cascade the drop
				if win.tr != nil {
					win.tr.Query().Add(trace.Dropped, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(sigs, qid)
				continue
			}
			sig.Or(wsig)
			e.stats.SigOrs++
			if !e.cfg.DisablePrune && sig.Prunable(e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(sig.LessCount()) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Query().Add(trace.Pruned, qid, c.startFrame, win.endFrame, c.windows, sig.Similarity(), margin)
				}
				delete(sigs, qid)
				e.stats.Pruned++
				continue
			}
			e.stats.SigTests++
			sim := sig.Similarity()
			if win.tr != nil {
				l := win.tr.Query()
				l.Add(trace.Extended, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
				if !c.reported[qid] {
					if sim >= e.cfg.Delta {
						l.Add(trace.Reported, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
					} else if sim >= e.cfg.Delta-win.nearEps {
						l.Add(trace.NearMiss, qid, c.startFrame, win.endFrame, c.windows, sim, e.cfg.Delta-sim)
					}
				}
			}
			if sim >= e.cfg.Delta && !c.reported[qid] {
				e.pending = append(e.pending, newMatch(qid, c.startFrame, win.endFrame, c.windows, sim))
				c.reported[qid] = true
			}
		}
	}
}

// seqSketch is the Sketch-method kernel. The candidate sketches were
// already combined by the pre-pass; here they are only compared.
func (e *Engine) seqSketch(win *windowResult, view *queryPlane) {
	// (1) Test the basic window against its related queries.
	for _, qid := range win.qids {
		q := view.lookup(qid)
		if q == nil {
			continue
		}
		eq, _ := minhash.CompareCounts(win.sketch, q.sketch)
		e.stats.SketchCompares++
		sim := float64(eq) / float64(e.cfg.K)
		if win.tr != nil {
			l := win.tr.Query()
			l.Add(trace.Extended, qid, win.startFrame, win.endFrame, 1, sim, 0)
			if sim >= e.cfg.Delta {
				l.Add(trace.Reported, qid, win.startFrame, win.endFrame, 1, sim, 0)
			} else if sim >= e.cfg.Delta-win.nearEps {
				l.Add(trace.NearMiss, qid, win.startFrame, win.endFrame, 1, sim, e.cfg.Delta-sim)
			}
		}
		if sim >= e.cfg.Delta {
			e.pending = append(e.pending, newMatch(qid, win.startFrame, win.endFrame, 1, sim))
			e.newReported[qid] = true
		}
	}

	// (2) Re-compare each candidate's combined sketch for its tracked
	// queries.
	for _, c := range e.seq {
		relM := c.related
		e.keys = sortedKeys(e.keys, relM)
		for _, qid := range e.keys {
			q := view.lookup(qid)
			if q == nil || c.windows > e.maxWindowsOf(q) {
				if win.tr != nil {
					win.tr.Query().Add(trace.Expired, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(relM, qid)
				continue
			}
			eq, less := minhash.CompareCounts(c.sketch, q.sketch)
			e.stats.SketchCompares++
			sim := float64(eq) / float64(e.cfg.K)
			if !e.cfg.DisablePrune && float64(less) > float64(e.cfg.K)*(1-e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(less) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Query().Add(trace.Pruned, qid, c.startFrame, win.endFrame, c.windows, sim, margin)
				}
				delete(relM, qid)
				e.stats.Pruned++
				continue
			}
			if win.tr != nil {
				l := win.tr.Query()
				l.Add(trace.Extended, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
				if !c.reported[qid] {
					if sim >= e.cfg.Delta {
						l.Add(trace.Reported, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
					} else if sim >= e.cfg.Delta-win.nearEps {
						l.Add(trace.NearMiss, qid, c.startFrame, win.endFrame, c.windows, sim, e.cfg.Delta-sim)
					}
				}
			}
			if sim >= e.cfg.Delta && !c.reported[qid] {
				e.pending = append(e.pending, newMatch(qid, c.startFrame, win.endFrame, c.windows, sim))
				c.reported[qid] = true
			}
		}
	}
}

// seqPostPass runs after the combine: candidates that track no query any
// more are dropped, the fresh size-1 candidate is appended from the
// window's probe results, and the memory accounting is taken over the
// final list.
func (e *Engine) seqPostPass(win *windowResult, view *queryPlane) {
	kept := e.seq[:0]
	for _, c := range e.seq {
		if c.tracked(e.cfg.Method) > 0 {
			kept = append(kept, c)
		} else if win.tr != nil {
			win.tr.Serial().Add(trace.Expired, -1, c.startFrame, win.endFrame, c.windows, -1, 0)
		}
	}
	for i := len(kept); i < len(e.seq); i++ {
		e.seq[i] = nil
	}
	e.seq = kept

	// Fresh size-1 candidate tracking the window's related queries; its own
	// window-alone test already ran, so that test's reports seed the
	// candidate's dedup set.
	if win.relatedLen() > 0 {
		c := &seqCandidate{
			startFrame: win.startFrame,
			windows:    1,
			reported:   e.newReported,
		}
		if e.cfg.Method == Bit {
			// The probe scratch is reused next window: the candidate gets
			// its own copies, in one block.
			c.sigs = make(map[int]*bitsig.Signature, len(win.related))
			own := bitsig.NewBlock(e.cfg.K, len(win.related))
			for i, r := range win.related {
				copy(own[i].Lo, r.Sig.Lo)
				copy(own[i].Hi, r.Sig.Hi)
				c.sigs[r.QID] = &own[i]
			}
		} else {
			c.sketch = win.sketch.Clone()
			c.related = make(map[int]bool, len(win.qids))
			for _, qid := range win.qids {
				if view.lookup(qid) != nil {
					c.related[qid] = true
				}
			}
		}
		if c.tracked(e.cfg.Method) > 0 {
			e.seq = append(e.seq, c)
			if win.tr != nil {
				win.tr.Serial().Add(trace.Born, -1, c.startFrame, win.endFrame, 1, -1, 0)
			}
		}
	}

	// Memory/candidate accounting after the window is fully folded in.
	var sigCount int64
	for _, c := range e.seq {
		sigCount += int64(c.tracked(e.cfg.Method))
	}
	e.stats.SignatureSum += sigCount
	e.stats.CandidateSum += int64(len(e.seq))
}
