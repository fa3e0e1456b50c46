package qindex

import (
	"runtime"
	"slices"
	"sync"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
)

// A batch joins an index in two halves. Deriving a query — its sketch, by
// the loop that names each row's winning cell, its split, and the rows each
// of its cells wins — reads nothing but the query and the family, so it
// runs on min(GOMAXPROCS, n) goroutines, the caller among them. Everything
// the index keeps — the slot, its split block and copied cell ids, slot and
// sequence numbers, trie nodes and posting lists — the caller makes in
// batch order, so the index holds the same bytes whatever the number of
// goroutines, and what it allocates of each kind lies in batch order as a
// serial build lays it. A batch of one starts no goroutine.

// addBatch joins a batch Check has passed, in batch order.
func (x *Index) addBatch(batch []Query) {
	workers := min(runtime.GOMAXPROCS(0), len(batch))
	if workers <= 1 {
		var d deriver
		var g grouping
		for _, q := range batch {
			s := x.place(q)
			x.derive(s, q.Sketch, &d, &g)
			x.joinAll(s, &g)
		}
		return
	}

	// The caller places each query and hands its number to the goroutines
	// on work, at most len(ring) ahead of the query it joins next, so a send
	// never waits on work's buffer of len(ring); query i waits in
	// ring[i % len(ring)] from its derivation to its join.
	slots := make([]*slot, len(batch))
	ring := make([]pending, min(len(batch), ringPerWorker*workers))
	for i := range ring {
		ring[i].ready = make(chan struct{}, 1)
	}
	work := make(chan int, len(ring))
	derive := func(i int, d *deriver) {
		p := &ring[i%len(ring)]
		x.derive(slots[i], batch[i].Sketch, d, &p.g)
		p.ready <- struct{}{}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d deriver
			for i := range work {
				derive(i, &d)
			}
		}()
	}
	// While the query it joins next is not ready, the caller derives one no
	// goroutine has taken.
	var d deriver
	placed, take := 0, work
	for i := range slots {
		for ; placed < min(len(batch), i+len(ring)); placed++ {
			slots[placed] = x.place(batch[placed])
			work <- placed
			if placed == len(batch)-1 {
				close(work)
			}
		}
		p := &ring[i%len(ring)]
		for waiting := true; waiting; {
			select {
			case <-p.ready:
				waiting = false
			default:
				select {
				case <-p.ready:
					waiting = false
				case j, ok := <-take:
					if !ok {
						take = nil
					} else {
						derive(j, &d)
					}
				}
			}
		}
		x.joinAll(slots[i], &p.g)
	}
	wg.Wait()
}

// ringPerWorker is how many derived queries a batch holds for the caller to
// join, per goroutine deriving them.
const ringPerWorker = 16

// deriver is the memory one goroutine derives queries in: the sketch of the
// query's cells and which cell wins each row.
type deriver struct {
	sk minhash.Sketch
	w  minhash.Winners
}

// pending is a derived query waiting to be joined: the rows its cells win,
// and the signal that they are there.
type pending struct {
	g     grouping
	ready chan struct{}
}

// place makes the slot of query q, whose values derive fills in later: a
// copy of its cell ids when it comes without a sketch, the block of its
// split, its sequence and slot numbers. It files the slot under q's id and
// counts it.
func (x *Index) place(q Query) *slot {
	cells := q.CellIDs
	if q.Sketch == nil {
		cells = slices.Clone(cells)
	}
	s := &slot{Entry: Entry{ID: q.ID, Length: q.Length, Sketch: bitsig.MakeSplit(x.k), CellIDs: cells}, seq: x.seq}
	x.seq++
	if f := x.free; f != nil {
		s.n, x.free, x.nfree = f.n, f.next, x.nfree-1
	} else {
		s.n, x.nslots = x.nslots, x.nslots+1
	}
	x.ids.put(x.own, s)
	x.count(q.Length, 1)
	x.bytes += slotBytes
	x.held += s.Sketch.Bytes() + 8*len(s.CellIDs)
	return s
}

// derive fills slot s's split and, on a keyed index, g with the rows each
// cell wins, in w's and g's memory. A query given by its cells (sk nil) is
// sketched by the loop that names each row's winning cell, so its rows come
// from the same pass as its sketch; one given by a sketch, or with more
// cells than Winners tells apart, has its cells found by inverting the
// sketch. It writes nothing the index reaches but s's split block.
func (x *Index) derive(s *slot, sk minhash.Sketch, d *deriver, g *grouping) {
	named := false
	if sk == nil {
		if d.sk == nil {
			d.sk = make(minhash.Sketch, x.k)
		}
		sk = x.fam.SketchWinnersInto(d.sk, s.CellIDs, &d.w)
		named = len(d.w.Row) == len(sk)
	}
	s.Sketch.Load(sk)
	switch {
	case !x.keyed:
		g.cells, g.rows = g.cells[:0], g.rows[:0]
	case named:
		g.winners(&d.w, x.nw)
	default:
		g.group(x.fam, len(sk), func(i int) uint64 { return sk[i] }, x.nw)
	}
}

// joinAll joins slot s to the posting list of each cell of g.
func (x *Index) joinAll(s *slot, g *grouping) {
	for j, c := range g.cells {
		x.join(c, s, g.rows[j*x.nw:(j+1)*x.nw])
	}
}
