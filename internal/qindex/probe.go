package qindex

import (
	"math"
	"math/bits"
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
	// Comparisons counts elementary value comparisons, the CPU proxy of the
	// cost experiments, as the paper's row searches make them: per query
	// entering R_L, one per row at which it holds the window's value, plus
	// the sketch positions compared (all K, or up to the word at which
	// Lemma 2 gave up).
	Comparisons int
	// EmptySearches counts rows that the RowMask handed to ProbeShardMasked
	// admitted but in which no query holds the window's value — a row
	// pre-filter's false positives. Zero from every other probe.
	EmptySearches int
}

// RowMask is a row pre-filter's admission set for one window: bit i set
// means row i may hold the window's value sk[i]. The index needs none — it
// reads only rows that do — so a mask changes no answer, and
// ProbeShardMasked only counts its false positives.
type RowMask []uint64

// NewRowMask returns an all-rejecting mask for k rows.
func NewRowMask(k int) RowMask { return make(RowMask, (k+63)/64) }

// Set admits row i.
func (m RowMask) Set(i int) { m[i/64] |= 1 << (i % 64) }

// Admits reports whether row i is admitted. A nil mask admits all.
func (m RowMask) Admits(i int) bool { return m == nil || m[i/64]&(1<<(i%64)) != 0 }

// ProbeScratch is the reusable memory of one prober: the output lists, the
// signature planes of the surviving queries, the per-slot marks that keep a
// query from entering R_L twice with their Equal planes, and the window's
// cells with their row sets. A scratch serves one goroutine at a time but
// any sequence of indexes and scans; the output of a probe — signatures
// included — is valid until the scratch's next probe, so a caller that
// keeps a signature clones it.
type ProbeScratch struct {
	out ProbeOutput
	// seen[n] == epoch marks slot number n as met in this probe, and at[n]
	// is then its place in met. Stamping makes the reset O(1); marks left
	// by earlier probes, of this or any other index, are below the current
	// epoch and read as unseen.
	seen  []uint32
	at    []int32
	epoch uint32
	// met lists the slots the probe found, in discovery order, and eq holds
	// their Equal planes, nw words each in the same order.
	met []*slot
	eq  []uint64
	// planes holds Lo then Hi (nw words each) for each survivor, back to
	// back; sigs are the headers Related[i].Sig points at.
	k, nw  int
	planes []uint64
	sigs   []bitsig.Signature
	window grouping
	// win is the window's sketch split for the kernel, loaded only by a
	// probe that has a query to resolve.
	win bitsig.Split
}

// begin opens a probe of a K=k sketch over nslots slot numbers (0 for a
// scan).
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
	ps.met, ps.eq = ps.met[:0], ps.eq[:0]
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

// equal returns the Equal plane of query s, an all-clear one queued for
// the resolve pass the first time this probe meets s.
func (ps *ProbeScratch) equal(s *slot) []uint64 {
	nw := ps.nw
	if ps.seen[s.n] != ps.epoch {
		ps.seen[s.n] = ps.epoch
		ps.at[s.n] = int32(len(ps.met))
		ps.met = append(ps.met, s)
		n := len(ps.eq)
		ps.eq = slices.Grow(ps.eq, nw)[:n+nw]
		clear(ps.eq[n:])
	}
	i := int(ps.at[s.n]) * nw
	return ps.eq[i : i+nw : i+nw]
}

// resolve takes every query the probe met into R_L, in discovery order:
// the signature kernel finds its Less plane beside the Equal plane the
// postings gave, and decides between Related and, by Lemma 2, Pruned. The
// window's sketch is split for the kernel only when there is a query to
// resolve.
func (ps *ProbeScratch) resolve(sk minhash.Sketch, limit int) {
	if len(ps.met) == 0 {
		return
	}
	ps.win.Load(sk)
	nw := ps.nw
	for i, s := range ps.met {
		lo, hi := ps.next()
		less, compared := bitsig.LessInto(lo, hi, ps.eq[i*nw:(i+1)*nw], ps.win, s.Sketch, limit)
		ps.out.Comparisons += compared
		if less > limit {
			ps.out.Pruned = append(ps.out.Pruned, s.ID)
			continue
		}
		ps.keep(s.ID, s.Length)
	}
}

// windowCells returns the window's cells and their row sets: from w when it
// names the winner of every row, else by inverting sk.
func (ps *ProbeScratch) windowCells(fam *minhash.Family, sk minhash.Sketch, w *minhash.Winners) (cells, rows []uint64) {
	g, nw := &ps.window, ps.nw
	if w == nil || len(w.Row) != len(sk) {
		g.group(fam, len(sk), func(i int) uint64 { return sk[i] }, nw)
	} else {
		g.winners(w, nw)
	}
	return g.cells, g.rows
}

// lessLimit is the Lemma 2 bound as an integer: a pair is prunable once its
// Less count exceeds it, which is the same test as less > K(1−δ).
func lessLimit(k int, delta float64) int {
	return int(math.Floor(float64(k) * (1 - delta)))
}

// Probe implements the ProbeIndex algorithm (paper Figure 5) on a scratch
// of its own.
func (x *Index) Probe(sk minhash.Sketch, delta float64) ProbeOutput {
	return *x.ProbeInto(new(ProbeScratch), sk, delta, nil)
}

// ProbeShardMasked is Probe that also counts, in EmptySearches, the rows
// mask admits in which no query holds the window's value. The index is not
// partitioned, so (part, parts) = (0, 1) is the only pair it accepts; the
// two parameters and the mask stay until the benchmark's replay stops
// passing them.
func (x *Index) ProbeShardMasked(sk minhash.Sketch, delta float64, part, parts int, mask RowMask) ProbeOutput {
	if part != 0 || parts != 1 {
		panic("qindex: ProbeShardMasked takes part 0 of 1 only")
	}
	if len(sk) != x.k {
		panic("qindex: probe sketch K mismatch")
	}
	var held RowMask
	if mask != nil {
		held = NewRowMask(x.k)
	}
	out := *x.probe(new(ProbeScratch), sk, delta, nil, held)
	for i, m := range mask[:min(len(mask), len(held))] {
		if i == len(held)-1 && x.k%64 != 0 {
			m &= 1<<(x.k%64) - 1
		}
		out.EmptySearches += bits.OnesCount64(m &^ held[i])
	}
	return out
}

// ProbeInto finds the window's related queries on ps. The window's cells
// and the rows each wins come from w, as minhash.Family.SketchWinners
// recorded them beside sk; a nil w, or one that does not name every row's
// winner, has them found by inverting sk instead. For each cell, every
// posting whose rows meet the window's rows of that cell is a query holding
// the window's value there, and enters R_L once: the postings gather each
// such query's Equal plane, and the kernel resolves its Less plane.
func (x *Index) ProbeInto(ps *ProbeScratch, sk minhash.Sketch, delta float64, w *minhash.Winners) *ProbeOutput {
	if len(sk) != x.k {
		panic("qindex: probe sketch K mismatch")
	}
	return x.probe(ps, sk, delta, w, nil)
}

// probe is ProbeInto that, when held is not nil, also sets in it every row
// at which some query holds the window's value.
func (x *Index) probe(ps *ProbeScratch, sk minhash.Sketch, delta float64, w *minhash.Winners, held RowMask) *ProbeOutput {
	out := ps.begin(int(x.nslots), x.k)
	limit := lessLimit(x.k, delta)
	if !x.keyed {
		x.scan(ps, sk, limit, held)
		return ps.finish()
	}
	cells, rows := ps.windowCells(x.fam, sk, w)
	nw := ps.nw
	for j, c := range cells {
		p, ok := x.cells.get(c)
		if !ok {
			continue
		}
		wr := rows[j*nw : (j+1)*nw : (j+1)*nw]
		for at, s := range p.slots {
			qr := p.rows[at*nw : (at+1)*nw : (at+1)*nw]
			eq := 0
			for word, r := range wr {
				eq += bits.OnesCount64(qr[word] & r)
			}
			if eq == 0 {
				continue
			}
			out.Comparisons += eq
			acc := ps.equal(s)
			for word, r := range wr {
				acc[word] |= qr[word] & r
			}
			for word := range held {
				held[word] |= qr[word] & wr[word]
			}
		}
	}
	ps.resolve(sk, limit)
	return ps.finish()
}

// scan is the probe of an index without postings: every slot through the
// signature kernel, in full. Each slot costs K comparisons, except on an
// index made by Build, which counts them as the keyed probe would.
func (x *Index) scan(ps *ProbeScratch, sk minhash.Sketch, limit int, held RowMask) {
	ps.win.Load(sk)
	x.ids.each(func(s *slot) {
		lo, hi := ps.next()
		less, _ := bitsig.CompareInto(lo, hi, ps.win, s.Sketch, x.k)
		eq := 0
		for word := range lo {
			equal := lo[word] &^ hi[word]
			eq += bits.OnesCount64(equal)
			if held != nil {
				held[word] |= equal
			}
		}
		if x.fam != nil {
			ps.out.Comparisons += x.k
		}
		if eq == 0 {
			return
		}
		if x.fam == nil {
			// The positions the kernel compares under the limit: up to the
			// end of the first word at which Less exceeds it.
			compared, partial := 0, 0
			for _, word := range hi {
				partial += bits.OnesCount64(word)
				compared = min(compared+64, x.k)
				if partial > limit {
					break
				}
			}
			ps.out.Comparisons += eq + compared
		}
		if less > limit {
			ps.out.Pruned = append(ps.out.Pruned, s.ID)
			return
		}
		ps.keep(s.ID, s.Length)
	})
}
