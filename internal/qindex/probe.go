package qindex

import (
	"math"
	"slices"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// Result is one element of the related query list R_L: the bit signature of
// a basic-window sketch against one query.
type Result struct {
	QID    int
	Length int // query length in frames
	Sig    *bitsig.Signature
}

// ProbeOutput is what a probe returns for one basic window: the surviving
// related-query list plus the queries that entered R_L but were pruned by
// Lemma 2 (their prune cascades to candidate sequences that track them).
type ProbeOutput struct {
	Related []Result
	Pruned  []int // query ids, each once, in discovery order
	// Comparisons counts elementary value comparisons performed, the CPU
	// proxy used by the cost experiments: one per equal entry the row
	// searches turn up, plus the sketch positions compared for each query
	// entering R_L (all K, or up to the word at which Lemma 2 gave up).
	Comparisons int
	// EmptySearches counts rows that a RowMask admitted but whose equal
	// search found no entry — the pre-filter tier's false positives. Zero
	// when probing unmasked. Every shard of one window reports the same
	// value (the emptiness of a row is shard-independent), so fold it from
	// a single shard, not by summing.
	EmptySearches int
}

// RowMask is the optional per-window row admission set a pre-filter tier
// (internal/prefilter) computes before the exact probe: bit i set means
// row i may hold the window's hash value sk[i] and must be searched; a
// clear bit rejects the row's equal search — and with it every candidate
// query at that hash position — in O(1). A nil RowMask admits every row.
//
// Masking is sound only when the mask is a superset of the truly-equal
// rows (no false negatives), which Bloom/fingerprint filters guarantee;
// the masked probe output is then identical to the unmasked one.
type RowMask []uint64

// NewRowMask returns an all-rejecting mask for k rows.
func NewRowMask(k int) RowMask { return make(RowMask, (k+63)/64) }

// Set admits row i.
func (m RowMask) Set(i int) { m[i/64] |= 1 << (i % 64) }

// Admits reports whether row i must be searched. A nil mask admits all.
func (m RowMask) Admits(i int) bool { return m == nil || m[i/64]&(1<<(i%64)) != 0 }

// ShardOf maps a query id to one of nshards evaluation shards. The mapping
// is the single source of truth for the parallel matching kernel: probes,
// candidate state and match ownership all partition queries with it, so a
// query's entire per-window life happens on one worker.
func ShardOf(qid, nshards int) int {
	if nshards <= 1 {
		return 0
	}
	s := qid % nshards
	if s < 0 {
		s += nshards
	}
	return s
}

// ProbeScratch is the reusable memory of one prober: the output lists, the
// signature planes of the surviving queries, the per-slot marks that keep a
// query from entering R_L twice, and the per-row state the index probe
// carries from one pass to the next. A scratch serves one goroutine at a
// time but any sequence of indexes and scans; the output of a probe —
// signatures included — is valid until the scratch's next probe, so a
// caller that keeps a signature clones it.
type ProbeScratch struct {
	out ProbeOutput
	// seen[s] == epoch marks slot s as already resolved in this probe, and
	// at[s] then says how: the offset of its Lo plane in planes when it was
	// kept, -1 when Lemma 2 pruned it. Stamping makes the reset O(1); marks
	// left by earlier probes, of this or any other index, are below the
	// current epoch and read as unseen.
	seen  []uint32
	at    []int32
	epoch uint32
	// planes holds Lo then Hi (nw words each) for each survivor, back to
	// back; sigs are the headers Related[i].Sig points at.
	k, nw  int
	planes []uint64
	sigs   []bitsig.Signature
	// rows is the index probe's pass state, one element per admitted row;
	// sized by the first index probe, so a scan never pays for it.
	rows []rowProbe
}

// rowProbe is what the passes of an index probe hand each other about row
// i: the leaf the fence search nominated, and the position in it at which
// the entries with the window value's prefix start, if it has any.
type rowProbe struct {
	lf    *leaf
	i     int32
	start uint8
}

// begin opens a probe of a K=k sketch over nslots slots (0 for a scan).
func (ps *ProbeScratch) begin(nslots, k int) *ProbeOutput {
	ps.k, ps.nw = k, (k+63)/64
	ps.epoch++
	if ps.epoch == 0 { // wrapped: old marks could alias new epochs
		clear(ps.seen)
		ps.epoch = 1
	}
	if len(ps.seen) < nslots {
		ps.seen = make([]uint32, nslots)
	}
	if len(ps.at) < nslots {
		ps.at = make([]int32, nslots)
	}
	ps.planes = ps.planes[:0]
	ps.out = ProbeOutput{Related: ps.out.Related[:0], Pruned: ps.out.Pruned[:0]}
	return &ps.out
}

// next returns the plane pair the next signature is compared into, at the
// tail of the plane buffer and not yet part of it.
func (ps *ProbeScratch) next() (lo, hi []uint64) {
	n, nw := len(ps.planes), ps.nw
	ps.planes = slices.Grow(ps.planes, 2*nw)
	return ps.planes[n : n+nw : n+nw], ps.planes[n+nw : n+2*nw : n+2*nw]
}

// keep makes the planes last returned by next a member of Related.
func (ps *ProbeScratch) keep(qid, length int) {
	ps.planes = ps.planes[:len(ps.planes)+2*ps.nw]
	ps.out.Related = append(ps.out.Related, Result{QID: qid, Length: length})
}

// finish points every Related entry at its signature. Done last because the
// plane buffer may move while it grows.
func (ps *ProbeScratch) finish() *ProbeOutput {
	rel := ps.out.Related
	ps.sigs = slices.Grow(ps.sigs[:0], len(rel))[:len(rel)]
	bitsig.View(ps.sigs, ps.k, ps.planes)
	for r := range rel {
		rel[r].Sig = &ps.sigs[r]
	}
	return &ps.out
}

// lessLimit is the Lemma 2 bound as an integer: a pair is prunable once its
// Less count exceeds it, which is the same test as less > K(1−δ).
func lessLimit(k int, delta float64) int {
	return int(math.Floor(float64(k) * (1 - delta)))
}

// Probe implements the ProbeIndex algorithm (paper Figure 5) over every
// indexed query, unmasked.
func (x *Index) Probe(sk minhash.Sketch, delta float64) ProbeOutput {
	return x.ProbeShardMasked(sk, delta, 0, 1, nil)
}

// ProbeShardMasked is ProbeInto on a scratch of its own: the output is the
// caller's to keep.
func (x *Index) ProbeShardMasked(sk minhash.Sketch, delta float64, shard, nshards int, mask RowMask) ProbeOutput {
	return *x.ProbeInto(new(ProbeScratch), sk, delta, shard, nshards, mask)
}

// ProbeInto probes the index for the queries of one shard (those with
// ShardOf(qid, nshards) == shard) under a pre-filter row mask. Every query
// is owned by exactly one shard, so the union of the nshards outputs equals
// the single-shard output and the Comparisons counts sum to its count — the
// probe work partitions instead of being replicated, at the price of the K
// row searches being repeated per shard.
//
// For each row the mask admits it finds the entries with the prefix of the
// window's value sk[i]; every owned query among them that holds sk[i] itself
// enters R_L, once. The entering query's relations at all K positions come
// from one pass of the signature kernel over its sketch, which stops early
// once Lemma 2 has condemned it. Rows the mask rejects are guaranteed to
// hold no equal value, so skipping them changes nothing: the output is
// identical to the unmasked probe whenever the mask has no false negatives.
// A nil mask searches every row.
func (x *Index) ProbeInto(ps *ProbeScratch, sk minhash.Sketch, delta float64, shard, nshards int, mask RowMask) *ProbeOutput {
	if len(sk) != x.k {
		panic("qindex: probe sketch K mismatch")
	}
	out := ps.begin(len(x.slots), x.k)
	if cap(ps.rows) < x.k {
		ps.rows = make([]rowProbe, x.k)
	}
	// Pass 1: the leaf each admitted row's run starts in. A value above the
	// whole row is sent to the last leaf, where pass 2 finds nothing, by
	// arithmetic (min compiles to a branch), so that no branch here depends
	// on the data. Only an index emptied by Remove has rows without a leaf.
	rows, n := ps.rows[:x.k], 0
	if len(x.pos) > 0 {
		for i, v := range sk {
			if mask.Admits(i) {
				r := &x.rows[i]
				j, last := lowerBound(r.fence, prefixOf(v)), len(r.leaves)-1
				j -= int(uint64(last-j) >> 63)
				rows[n] = rowProbe{lf: r.leaves[j], i: int32(i)}
				n++
			}
		}
	} else if mask != nil {
		for i := range sk {
			if mask.Admits(i) {
				out.EmptySearches++
			}
		}
	}
	rows = rows[:n]
	// Pass 2: where the run starts inside each leaf.
	for n := range rows {
		r := &rows[n]
		r.start = uint8(r.lf.below(prefixOf(sk[r.i])))
	}
	// Pass 3: the hits, in row order.
	h := hits{x: x, ps: ps, sk: sk, limit: lessLimit(x.k, delta), shard: shard, nshards: nshards}
	for n := range rows {
		r := &rows[n]
		i, found := int(r.i), false
		if r.start < leafCap && uint32(r.lf[r.start]>>32) == prefixOf(sk[i]) {
			var open bool
			if found, open = h.leaf(r.lf, int(r.start), i); open {
				found = h.runOn(i) || found
			}
		}
		if !found && mask != nil {
			out.EmptySearches++
		}
	}
	// A scratch at rest must not pin the leaves — and with them the row
	// slabs — of an index that has since been superseded.
	clear(rows)
	return ps.finish()
}

// hits is pass 3 of one probe: the constants of the probe around the
// per-entry decision.
type hits struct {
	x              *Index
	ps             *ProbeScratch
	sk             minhash.Sketch
	limit          int
	shard, nshards int
}

// runOn handles what is left of row i's run beyond the leaf it starts in,
// which it ran to the end of.
func (h *hits) runOn(i int) (found bool) {
	r := &h.x.rows[i]
	j := lowerBound(r.fence, prefixOf(h.sk[i])) + 1
	for open := true; open && j < len(r.leaves); j++ {
		var f bool
		f, open = h.leaf(r.leaves[j], 0, i)
		found = found || f
	}
	return found
}

// leaf resolves the entries of lf from position start on that share the prefix
// of the window's value v = sk[i] at row i. It reports whether any query, of
// any shard, holds v there, and whether the run is still open: it has begun
// and the leaf ended before it did. The prefix only nominates: a slot counts
// as holding v when its sketch says so — or, for a slot this probe already
// kept, when its signature has Equal at i, which is the same statement read
// from memory the scratch already holds.
func (h *hits) leaf(lf *leaf, start, i int) (found, open bool) {
	x, ps, out, v := h.x, h.ps, &h.ps.out, h.sk[i]
	p, t := prefixOf(v), start
	for ; t < leafCap && lf[t] != pad; t++ {
		if uint32(lf[t]>>32) != p {
			return found, false
		}
		s := int32(uint32(lf[t]))
		seen := ps.seen[s] == ps.epoch
		if seen && ps.at[s] >= 0 {
			w := int(ps.at[s]) + i/64
			if (ps.planes[w]&^ps.planes[w+ps.nw])>>(i%64)&1 != 0 {
				found = true
				out.Comparisons++
			}
			continue
		}
		sl := &x.slots[s]
		if sl.sketch[i] != v {
			continue
		}
		found = true
		if h.nshards > 1 && ShardOf(sl.qid, h.nshards) != h.shard {
			continue
		}
		out.Comparisons++
		if seen {
			continue
		}
		ps.seen[s], ps.at[s] = ps.epoch, -1
		plo, phi := ps.next()
		less, compared := bitsig.CompareInto(plo, phi, h.sk, sl.sketch, h.limit)
		out.Comparisons += compared
		if less > h.limit {
			out.Pruned = append(out.Pruned, sl.qid)
			continue
		}
		ps.at[s] = int32(len(ps.planes))
		ps.keep(sl.qid, sl.length)
	}
	return found, t > start
}

// Scan is the index-free prober: every query sketch is compared against the
// window sketch in full (the SketchNoIndex / BitNoIndex baseline), through
// the same signature kernel the index uses. Queries with no equal position
// are omitted from the result, matching the index's notion of "related";
// queries failing Lemma 2 are reported as pruned.
type Scan struct {
	Queries []Query
}

// Probe scans every query on a scratch of its own.
func (s *Scan) Probe(sk minhash.Sketch, delta float64) ProbeOutput {
	po, _ := s.ProbeInto(new(ProbeScratch), sk, delta, 0, 1)
	return *po
}

// ProbeInto scans only the queries of one shard, returning their probe
// output and the number of full sketch comparisons performed. The shard
// outputs and scan counts partition the single-shard scan's exactly, so the
// brute-force probe parallelises linearly across workers.
func (s *Scan) ProbeInto(ps *ProbeScratch, sk minhash.Sketch, delta float64, shard, nshards int) (*ProbeOutput, int) {
	k := len(sk)
	out := ps.begin(0, k)
	limit := lessLimit(k, delta)
	scanned := 0
	for _, q := range s.Queries {
		if ShardOf(q.ID, nshards) != shard {
			continue
		}
		scanned++
		lo, hi := ps.next()
		less, _ := bitsig.CompareInto(lo, hi, sk, q.Sketch, k)
		out.Comparisons += k
		_, equal, _ := (&bitsig.Signature{K: k, Lo: lo, Hi: hi}).Counts()
		switch {
		case equal == 0:
		case less > limit:
			out.Pruned = append(out.Pruned, q.ID)
		default:
			ps.keep(q.ID, q.Length)
		}
	}
	return ps.finish(), scanned
}
