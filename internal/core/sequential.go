package core

import (
	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
	"vdsms/internal/trace"
)

// seqCandidate is one entry of the Sequential-order candidate list: the
// suffix of the stream starting at startFrame. The scalar spine fields
// (interval, size, combined sketch) are advanced serially once per window;
// the per-query state is split into per-shard slots — slot s holds only
// queries with ShardOf(qid) == s and is mutated exclusively by shard s
// during the parallel phase.
type seqCandidate struct {
	startFrame int
	windows    int
	// Sketch method spine state: the combined candidate sketch.
	sketch minhash.Sketch
	// Bit method per-shard state: one signature per tracked query.
	sigs []map[int]*bitsig.Signature
	// Sketch method per-shard state: the tracked query sets.
	related []map[int]bool
	// reported dedups match reports per query for this candidate.
	reported []map[int]bool
}

// tracked returns the number of queries the candidate tracks across all
// shard slots (signatures for Bit, related entries for Sketch).
func (c *seqCandidate) tracked(method Method) int {
	n := 0
	if method == Bit {
		for _, m := range c.sigs {
			n += len(m)
		}
		return n
	}
	for _, m := range c.related {
		n += len(m)
	}
	return n
}

// seqPrePass advances the candidate spine serially before the shard fork:
// sizes grow by one window, and under the Sketch method the window sketch
// is folded into each candidate's combined sketch exactly once (the spine
// operation the shards then compare against read-only).
func (e *Engine) seqPrePass(win *windowResult) {
	for _, c := range e.seq {
		c.windows++
		if e.cfg.Method == Sketch {
			minhash.Combine(c.sketch, win.sketch)
			e.stats.SketchCombines++
		}
	}
}

// shardSequential runs one shard's slice of the Sequential kernel: the
// window-alone test for the shard's related queries, then the extension of
// the shard's slot in every candidate.
func (e *Engine) shardSequential(s *engineShard, win *windowResult, view *queryPlane) {
	s.newReported = make(map[int]bool)
	if e.cfg.Method == Bit {
		e.seqShardBit(s, win, view)
	} else {
		e.seqShardSketch(s, win, view)
	}
}

// seqShardBit is the Bit-method shard phase.
func (e *Engine) seqShardBit(s *engineShard, win *windowResult, view *queryPlane) {
	rel := win.relatedSh[s.id]

	// (1) Test the basic window itself against the shard's related queries.
	for _, r := range rel {
		qid, sig := r.QID, r.Sig
		s.d.sigTests++
		sim := sig.Similarity()
		if win.tr != nil {
			l := win.tr.Shard(s.id)
			l.Add(trace.Extended, qid, win.startFrame, win.endFrame, 1, sim, 0)
			if sim >= e.cfg.Delta {
				l.Add(trace.Reported, qid, win.startFrame, win.endFrame, 1, sim, 0)
			} else if sim >= e.cfg.Delta-win.nearEps {
				l.Add(trace.NearMiss, qid, win.startFrame, win.endFrame, 1, sim, e.cfg.Delta-sim)
			}
		}
		if sim >= e.cfg.Delta {
			s.push(0, win.startFrame, qid, newMatch(qid, win.startFrame, win.endFrame, 1, sim))
			s.newReported[qid] = true
		}
	}

	// (2) Extend the shard's slot of every candidate. A query stays tracked
	// only while consecutive windows keep it related (Section V.B); a window
	// with no equal min-hash against q — or where q was Lemma 2-pruned —
	// drops q from the candidate. Windows inside a true copy of q always
	// share min-hashes with q, so this never loses a detectable copy.
	for _, c := range e.seq {
		sigs := c.sigs[s.id]
		s.keys = sortedKeys(s.keys, sigs)
		for _, qid := range s.keys {
			sig := sigs[qid]
			q := view.lookup(qid)
			if q == nil || c.windows > e.maxWindowsOf(q) {
				if win.tr != nil {
					win.tr.Shard(s.id).Add(trace.Expired, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(sigs, qid)
				continue
			}
			wsig := findSig(rel, qid)
			if wsig == nil { // unrelated or pruned: cascade the drop
				if win.tr != nil {
					win.tr.Shard(s.id).Add(trace.Dropped, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(sigs, qid)
				continue
			}
			sig.Or(wsig)
			s.d.sigOrs++
			if !e.cfg.DisablePrune && sig.Prunable(e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(sig.LessCount()) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Shard(s.id).Add(trace.Pruned, qid, c.startFrame, win.endFrame, c.windows, sig.Similarity(), margin)
				}
				delete(sigs, qid)
				s.d.pruned++
				continue
			}
			s.d.sigTests++
			sim := sig.Similarity()
			if win.tr != nil {
				l := win.tr.Shard(s.id)
				l.Add(trace.Extended, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
				if !c.reported[s.id][qid] {
					if sim >= e.cfg.Delta {
						l.Add(trace.Reported, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
					} else if sim >= e.cfg.Delta-win.nearEps {
						l.Add(trace.NearMiss, qid, c.startFrame, win.endFrame, c.windows, sim, e.cfg.Delta-sim)
					}
				}
			}
			if sim >= e.cfg.Delta && !c.reported[s.id][qid] {
				s.push(1, c.startFrame, qid, newMatch(qid, c.startFrame, win.endFrame, c.windows, sim))
				c.reported[s.id][qid] = true
			}
		}
	}
}

// seqShardSketch is the Sketch-method shard phase. The candidate sketches
// were already combined by the serial pre-pass; shards only compare.
func (e *Engine) seqShardSketch(s *engineShard, win *windowResult, view *queryPlane) {
	// (1) Test the basic window against the shard's related queries.
	for _, qid := range win.qidsSh[s.id] {
		q := view.lookup(qid)
		if q == nil {
			continue
		}
		eq, _ := minhash.CompareCounts(win.sketch, q.sketch)
		s.d.sketchCompares++
		sim := float64(eq) / float64(e.cfg.K)
		if win.tr != nil {
			l := win.tr.Shard(s.id)
			l.Add(trace.Extended, qid, win.startFrame, win.endFrame, 1, sim, 0)
			if sim >= e.cfg.Delta {
				l.Add(trace.Reported, qid, win.startFrame, win.endFrame, 1, sim, 0)
			} else if sim >= e.cfg.Delta-win.nearEps {
				l.Add(trace.NearMiss, qid, win.startFrame, win.endFrame, 1, sim, e.cfg.Delta-sim)
			}
		}
		if sim >= e.cfg.Delta {
			s.push(0, win.startFrame, qid, newMatch(qid, win.startFrame, win.endFrame, 1, sim))
			s.newReported[qid] = true
		}
	}

	// (2) Re-compare each candidate's combined sketch for the shard's
	// tracked queries.
	for _, c := range e.seq {
		relM := c.related[s.id]
		s.keys = sortedKeys(s.keys, relM)
		for _, qid := range s.keys {
			q := view.lookup(qid)
			if q == nil || c.windows > e.maxWindowsOf(q) {
				if win.tr != nil {
					win.tr.Shard(s.id).Add(trace.Expired, qid, c.startFrame, win.endFrame, c.windows, -1, 0)
				}
				delete(relM, qid)
				continue
			}
			eq, less := minhash.CompareCounts(c.sketch, q.sketch)
			s.d.sketchCompares++
			sim := float64(eq) / float64(e.cfg.K)
			if !e.cfg.DisablePrune && float64(less) > float64(e.cfg.K)*(1-e.cfg.Delta) {
				if win.tr != nil {
					margin := (float64(less) - float64(e.cfg.K)*(1-e.cfg.Delta)) / float64(e.cfg.K)
					win.tr.Shard(s.id).Add(trace.Pruned, qid, c.startFrame, win.endFrame, c.windows, sim, margin)
				}
				delete(relM, qid)
				s.d.pruned++
				continue
			}
			if win.tr != nil {
				l := win.tr.Shard(s.id)
				l.Add(trace.Extended, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
				if !c.reported[s.id][qid] {
					if sim >= e.cfg.Delta {
						l.Add(trace.Reported, qid, c.startFrame, win.endFrame, c.windows, sim, 0)
					} else if sim >= e.cfg.Delta-win.nearEps {
						l.Add(trace.NearMiss, qid, c.startFrame, win.endFrame, c.windows, sim, e.cfg.Delta-sim)
					}
				}
			}
			if sim >= e.cfg.Delta && !c.reported[s.id][qid] {
				s.push(1, c.startFrame, qid, newMatch(qid, c.startFrame, win.endFrame, c.windows, sim))
				c.reported[s.id][qid] = true
			}
		}
	}
}

// seqPostPass runs serially after the join: candidates that no shard still
// tracks are dropped, the fresh size-1 candidate is appended from the
// window's per-shard probe results, and the memory accounting is taken
// over the final list (spine work, counted once).
func (e *Engine) seqPostPass(win *windowResult, view *queryPlane) {
	kept := e.seq[:0]
	for _, c := range e.seq {
		alive := false
		if e.cfg.Method == Bit {
			alive = !allEmptySigs(c.sigs)
		} else {
			alive = !allEmptySets(c.related)
		}
		if alive {
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
	// window-alone test already ran in the shard phase, so each shard's
	// newReported map seeds the candidate's dedup slot.
	if win.relatedLen() > 0 {
		c := &seqCandidate{
			startFrame: win.startFrame,
			windows:    1,
			reported:   make([]map[int]bool, e.nshards),
		}
		for si := range c.reported {
			c.reported[si] = e.shards[si].newReported
		}
		tracked := 0
		if e.cfg.Method == Bit {
			c.sigs = make([]map[int]*bitsig.Signature, e.nshards)
			for si, rel := range win.relatedSh {
				// The probe scratch is reused next window: the candidate
				// gets its own copies, in one block.
				m := make(map[int]*bitsig.Signature, len(rel))
				own := bitsig.NewBlock(e.cfg.K, len(rel))
				for i, r := range rel {
					copy(own[i].Lo, r.Sig.Lo)
					copy(own[i].Hi, r.Sig.Hi)
					m[r.QID] = &own[i]
				}
				c.sigs[si] = m
				tracked += len(m)
			}
		} else {
			c.sketch = win.sketch.Clone()
			c.related = make([]map[int]bool, e.nshards)
			for si, qids := range win.qidsSh {
				m := make(map[int]bool, len(qids))
				for _, qid := range qids {
					if view.lookup(qid) != nil {
						m[qid] = true
					}
				}
				c.related[si] = m
				tracked += len(m)
			}
		}
		if tracked > 0 {
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
