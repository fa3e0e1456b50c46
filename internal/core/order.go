package core

import (
	"vdsms/internal/bitsig"
	"vdsms/internal/qindex"
	"vdsms/internal/trace"
)

// The candidate list C_L (paper Section IV.A) is held as data: every
// Sequential candidate and every Geometric bucket carries one tracked list —
// the queries it still tracks, strictly ascending, and under the Bit method
// each one's signature beside it. The window's related list is ascending
// too, so both orders advance a candidate by one merge walk, and every walk
// visits queries in id order: identical inputs produce identical match
// sequences, a requirement for reproducible experiments. Both orders and
// both methods then share one report decision (decide) and one Lemma 2
// prune (pruned).

// tracked is the query list of one candidate: ids strictly ascending and,
// under the Bit method, sigs parallel to ids with all planes in one
// bitsig.NewBlock. Under the Sketch method sigs is nil.
type tracked struct {
	ids  []int
	sigs []bitsig.Signature
}

// windowTracked copies the window's related list into a list the
// candidate owns: the probe scratch it lives in is reused next window.
func (e *Engine) windowTracked(win *windowResult) tracked {
	t := tracked{ids: append([]int(nil), win.qids...)}
	if e.cfg.Method == Bit {
		t.sigs = bitsig.NewBlock(e.cfg.K, len(win.related))
		for i, r := range win.related {
			copy(t.sigs[i].Lo, r.Sig.Lo)
			copy(t.sigs[i].Hi, r.Sig.Hi)
		}
	}
	return t
}

// live reports whether query q can still match a candidate of the given
// size: it is subscribed on the window's plane and within its λL bound.
func (e *Engine) live(q *qindex.Entry, windows int) bool {
	return q != nil && windows <= e.maxWindowsOf(q)
}

// expire journals that a candidate stopped tracking qid because the query
// left the plane or the candidate outgrew its λL bound.
func expire(win *windowResult, qid, start, end, windows int) {
	if win.tr != nil {
		win.tr.Query().Add(trace.Expired, qid, start, end, windows, -1, 0)
	}
}

// similarity is Lemma 1's estimate from a count of Equal positions.
func (e *Engine) similarity(equal int) float64 { return float64(equal) / float64(e.cfg.K) }

// decide is the report decision of one estimate of a candidate against
// query qid: it journals the Extended point and, unless the pair already
// reported (done), the Reported or NearMiss decision, and it buffers the
// match when the estimate crosses δ. It returns whether it did — the
// caller records the report in its dedup set.
func (e *Engine) decide(win *windowResult, qid, start, end, windows int, sim float64, done bool) bool {
	delta := e.cfg.Delta
	if win.tr != nil {
		l := win.tr.Query()
		l.Add(trace.Extended, qid, start, end, windows, sim, 0)
		if !done {
			if sim >= delta {
				l.Add(trace.Reported, qid, start, end, windows, sim, 0)
			} else if sim >= delta-win.nearEps {
				l.Add(trace.NearMiss, qid, start, end, windows, sim, delta-sim)
			}
		}
	}
	if done || sim < delta {
		return false
	}
	e.pending = append(e.pending, Match{
		QueryID: qid, StartFrame: start, EndFrame: end, DetectedAt: end,
		Similarity: sim, Windows: windows,
	})
	return true
}

// pruned applies Lemma 2 to a candidate with less Less positions against
// qid: past K(1−δ) of them no extension of the candidate can reach δ, so
// the query is dropped, journaled with its margin past that line. The
// ablation flag DisablePrune turns the test off.
func (e *Engine) pruned(win *windowResult, qid, start, end, windows, less int, sim float64) bool {
	line := float64(e.cfg.K) * (1 - e.cfg.Delta)
	if e.cfg.DisablePrune || float64(less) <= line {
		return false
	}
	if win.tr != nil {
		win.tr.Query().Add(trace.Pruned, qid, start, end, windows, sim, (float64(less)-line)/float64(e.cfg.K))
	}
	e.stats.Pruned++
	return true
}
