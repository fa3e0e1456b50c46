package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/fleet"
	"vdsms/internal/partition"
	"vdsms/internal/snapshot"
	"vdsms/internal/trace"
)

// The determinism contracts of the engine, checked in one place. Every cell
// of the paper's {Bit, Sketch} × {Index, NoIndex} × {Sequential, Geometric}
// matrix runs one seeded workload — several queries, background, embedded
// copies, one remove and one add mid-stream — first as the reference (an
// isolated engine fed one frame at a time, churn applied inline), then
// along axes that must each reproduce the reference's Matches byte for
// byte and its Stats exactly. Each axis is a test of its own:
//
//	rerun         a second reference run (TestEngineDeterministic);
//	resubscribed  the initial queries added one at a time in descending id
//	              order (TestEngineDeterministicMultiQuery);
//	batched       PushFrames in uneven batches (TestPushFramesMatchesPushFrame);
//	churned       the churn made from a second goroutine at the same window
//	              boundaries (TestPlaneChurnEquivalence);
//	pooled        the stream on a fleet.Pool of 1, 3 and 4 workers, three
//	              streams at once, finished by Drain, two concurrent Drains or
//	              Detach(true) (TestParallelMatchesSerial);
//	restored      a checkpoint at every window boundary and at three
//	              mid-window cuts, through snapshot.Marshal/Read and
//	              core.RestoreEngine (TestCrashPointSweep);
//	flagged       Config.PreFilter set, which the engine accepts and ignores:
//	              one frame at a time and batched
//	              (TestPreFilterOutputEquivalence), churned
//	              (TestPreFilterChurnFuzz), and restored with the flag set or
//	              clear on either side of the checkpoint, whose bytes do not
//	              depend on it (TestPreFilterSnapshotRoundTrip);
//	traced        tracing armed with every report exactly audited
//	              (TestDeterminismContracts).
//
// Across cells (TestDeterminismContracts): Bit gives the same matches with
// the index as without; Sketch with the index gives a subset of Sketch
// without it, because the NoIndex Sketch path relates every query to every
// window where the index relates only those sharing a min-hash value; and
// every report of every cell is within Theorem 1's ε of the exact Jaccard
// similarity.

// cell is one configuration of the method matrix.
type cell struct {
	method core.Method
	order  core.Order
	index  bool
}

func (c cell) String() string {
	name := map[core.Method]string{core.Bit: "bit", core.Sketch: "sketch"}[c.method] +
		map[core.Order]string{core.Sequential: "-seq", core.Geometric: "-geo"}[c.order]
	if c.index {
		return name + "-index"
	}
	return name + "-noindex"
}

// config is the engine configuration of c. K = 192 keeps Theorem 1's ε
// at 0.194, so an estimate off by 0.3 is a violation however it falls.
func (c cell) config() core.Config {
	return core.Config{
		K: 192, Seed: 5, Delta: 0.5, Lambda: 2, WindowFrames: 10,
		Order: c.order, Method: c.method, UseIndex: c.index,
	}
}

var cells = func() (cs []cell) {
	for _, m := range []core.Method{core.Bit, core.Sketch} {
		for _, o := range []core.Order{core.Sequential, core.Geometric} {
			for _, index := range []bool{true, false} {
				cs = append(cs, cell{m, o, index})
			}
		}
	}
	return cs
}()

// churn is one subscription change: query id added (with its cells) or
// removed.
type churn struct {
	add bool
	id  int
}

// workload is the one seeded input every cell and axis runs.
type workload struct {
	queries map[int][]uint64 // cell ids by query id
	initial []int            // subscribed before the first frame
	stream  []uint64
	// ops[f] is applied before frame f is pushed; f is a window boundary.
	ops map[int][]churn
	// batches are the uneven push sizes, cycled; a batch never crosses a
	// churn point.
	batches []int
}

// shots is a cell-id stream of content c: ids from an alphabet of its own,
// each held for a few frames as a shot holds its key frames.
func shots(rng *rand.Rand, c, frames int) []uint64 {
	base := uint64(c) * 100000
	out := make([]uint64, frames)
	cur := base + uint64(rng.Intn(50))
	for i := range out {
		if rng.Float64() < 0.3 {
			cur = base + uint64(rng.Intn(50))
		}
		out[i] = cur
	}
	return out
}

// newWorkload builds the workload: queries 2–7 subscribed up front, copies
// of several in background, query 4 removed before its second copy and
// query 1 added before its own. Query 1 has the lowest id and is added
// last, so the plane's insertion order is not its id order.
func newWorkload() *workload {
	rng := rand.New(rand.NewSource(42))
	wl := &workload{
		queries: map[int][]uint64{},
		ops:     map[int][]churn{},
		batches: []int{7, 3, 13, 1, 10, 22, 5},
	}
	for id := 1; id <= 7; id++ {
		// Queries 5 and 6 share the alphabets of 2 and 3: a window of one
		// relates to both, and the related list has an order to keep.
		wl.queries[id] = shots(rng, []int{1, 2, 3, 4, 2, 3, 7}[id-1], 30+5*id)
		if id > 1 {
			wl.initial = append(wl.initial, id)
		}
	}
	wl.stream = shots(rng, 50, 33)
	before := map[int]churn{3: {id: 4}, 5: {add: true, id: 1}} // by copy
	for n, id := range []int{3, 2, 4, 4, 6, 1, 5} {
		if op, ok := before[n]; ok {
			f := (len(wl.stream) + 9) / 10 * 10 // the next window boundary
			wl.ops[f] = append(wl.ops[f], op)
		}
		wl.stream = append(wl.stream, wl.queries[id]...)
		wl.stream = append(wl.stream, shots(rng, 60+n, 23)...)
	}
	return wl
}

// subscriber is what queries are subscribed on: an engine or a pool.
type subscriber interface {
	AddQueries(ids []int, cellIDs [][]uint64) error
	AddQuery(id int, cellIDs []uint64) error
	RemoveQuery(id int) error
}

// apply runs the churn scheduled before frame f on s.
func (wl *workload) apply(t *testing.T, s subscriber, f int) {
	for _, op := range wl.ops[f] {
		var err error
		if op.add {
			err = s.AddQuery(op.id, wl.queries[op.id])
		} else {
			err = s.RemoveQuery(op.id)
		}
		if err != nil {
			t.Errorf("frame %d: %+v: %v", f, op, err)
		}
	}
}

// play feeds frames [from, to) to push in batches cycling through sizes,
// calling at with the first frame of each batch and finally with to. No
// batch crosses a churn point.
func (wl *workload) play(from, to int, sizes []int, push func([]uint64), at func(f int)) {
	for n, f := 0, from; f < to; n++ {
		at(f)
		end := min(f+sizes[n%len(sizes)], to)
		for g := f + 1; g < end; g++ {
			if wl.ops[g] != nil {
				end = g
			}
		}
		push(wl.stream[f:end])
		f = end
	}
	at(to)
}

// flagged is cfg with Config.PreFilter set.
func flagged(cfg core.Config) core.Config {
	cfg.PreFilter = true
	return cfg
}

// engine builds an isolated engine of cfg with the initial subscription.
func (wl *workload) engine(t *testing.T, cfg core.Config) *core.Engine {
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wl.subscribe(t, e)
	return e
}

// subscribe makes the initial subscription on s.
func (wl *workload) subscribe(t *testing.T, s subscriber) {
	var cells [][]uint64
	for _, id := range wl.initial {
		cells = append(cells, wl.queries[id])
	}
	if err := s.AddQueries(wl.initial, cells); err != nil {
		t.Fatal(err)
	}
}

// outcome is what every axis must reproduce.
type outcome struct {
	matches []core.Match
	stats   core.Stats
}

func (o outcome) check(t *testing.T, axis string, ref outcome) {
	t.Helper()
	if !reflect.DeepEqual(o.matches, ref.matches) {
		t.Errorf("%s: matches diverge from the reference\nreference %+v\n%-9s %+v", axis, ref.matches, axis, o.matches)
	}
	if o.stats != ref.stats {
		t.Errorf("%s: stats diverge from the reference\nreference %+v\n%-9s %+v", axis, ref.stats, axis, o.stats)
	}
}

func finished(e *core.Engine) outcome {
	e.Flush()
	return outcome{e.Matches, e.Stats()}
}

// run plays the stream from frame from on e with the churn inline: one frame at a
// time through PushFrame, the reference's way, or in the uneven batches.
func (wl *workload) run(t *testing.T, e *core.Engine, from int, batched bool) outcome {
	sizes, push := []int{1}, func(b []uint64) { e.PushFrame(b[0]) }
	if batched {
		sizes, push = wl.batches, e.PushFrames
	}
	wl.play(from, len(wl.stream), sizes, push, func(f int) { wl.apply(t, e, f) })
	return finished(e)
}

// churned makes the churn from a second goroutine, handing it each batch
// start and waiting for it, so the plane is swapped by another goroutine
// at the same window boundaries.
func (wl *workload) churned(t *testing.T, cfg core.Config) outcome {
	e := wl.engine(t, cfg)
	at, done := make(chan int), make(chan struct{})
	go func() {
		defer close(done)
		for f := range at {
			wl.apply(t, e, f)
			done <- struct{}{}
		}
	}()
	wl.play(0, len(wl.stream), wl.batches, e.PushFrames, func(f int) {
		at <- f
		<-done
	})
	close(at)
	<-done
	return finished(e)
}

// pooled runs three streams of the workload on one pool, each pushed by a
// producer of its own; at each churn point the pool is drained and the
// churn applied to its shared plane. finish ends the last stretch before
// every stream is detached with its final partial window flushed.
func (wl *workload) pooled(t *testing.T, c cell, workers int, finish func(*fleet.Pool)) []outcome {
	p, err := fleet.New(fleet.Config{Engine: c.config(), Workers: workers, QueueFrames: len(wl.stream)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	wl.subscribe(t, p)
	streams := make([]*fleet.Stream, 3)
	for i := range streams {
		if streams[i], err = p.Attach(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stops := []int{0}
	for f := range wl.ops {
		stops = append(stops, f)
	}
	stops = append(stops, len(wl.stream))
	slices.Sort(stops)
	for i := 0; i+1 < len(stops); i++ {
		from, to := stops[i], stops[i+1]
		if i > 0 {
			p.Drain()
			wl.apply(t, p, from)
		}
		var wg sync.WaitGroup
		for _, s := range streams {
			wg.Add(1)
			go func(s *fleet.Stream) {
				defer wg.Done()
				wl.play(from, to, wl.batches, func(b []uint64) {
					if err := s.Push(b); err != nil {
						t.Error(err)
					}
				}, func(int) {})
			}(s)
		}
		wg.Wait()
	}
	finish(p)
	out := make([]outcome, len(streams))
	for i, s := range streams {
		s.Detach(true)
		out[i] = outcome{s.Matches(), s.Stats()}
	}
	var frames int64
	for _, w := range p.WorkerStats() {
		frames += w.Frames
	}
	if want := int64(len(streams) * len(wl.stream)); frames != want {
		t.Errorf("pool rows count %d frames, %d were pushed", frames, want)
	}
	return out
}

// restored runs the workload one frame at a time on an engine of write
// and, at every cut, writes a checkpoint through the codec, restores an
// engine of read from it and finishes the stream on the restored engine:
// the matches before the cut followed by the restored engine's, and its
// stats, must be the reference's. So must those of the engine exported at
// every cut. It returns the checkpoint bytes by cut.
func (wl *workload) restored(t *testing.T, write, read core.Config, cuts map[int]bool, ref outcome) map[int][]byte {
	e := wl.engine(t, write)
	written := map[int][]byte{}
	at := func(f int) {
		if cuts[f] {
			written[f] = snapshot.Marshal(&snapshot.Checkpoint{Engine: *e.ExportState()})
			ck, err := snapshot.Read(bytes.NewReader(written[f]))
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.RestoreEngine(read, &ck.Engine)
			if err != nil {
				t.Fatal(err)
			}
			o := wl.run(t, r, f, false)
			o.matches = append(slices.Clone(e.Matches), o.matches...)
			o.check(t, fmt.Sprintf("restored at %d", f), ref)
		}
		wl.apply(t, e, f)
	}
	wl.play(0, len(wl.stream), []int{1}, func(b []uint64) { e.PushFrame(b[0]) }, at)
	finished(e).check(t, "exported", ref)
	return written
}

// cuts are the frames the restored axis checkpoints at: every window
// boundary, or with boundaries false only the three mid-window cuts.
func (wl *workload) cuts(t *testing.T, boundaries bool) map[int]bool {
	cuts := map[int]bool{}
	for f := 0; boundaries && f <= len(wl.stream); f += 10 {
		cuts[f] = true
	}
	for _, f := range []int{3, len(wl.stream)/20*10 + 5, len(wl.stream)/10*10 - 3} {
		if f%10 == 0 {
			t.Fatalf("cut %d is not mid-window", f)
		}
		cuts[f] = true
	}
	return cuts
}

// traced runs the batched axis with tracing armed on a private journal and
// every report audited, returning the provenance records too.
func (wl *workload) traced(t *testing.T, c cell) (outcome, []trace.MatchRecord) {
	e := wl.engine(t, c.config())
	j := trace.NewJournal(1<<16, 1<<10)
	e.Trace(j, "harness")
	e.SetAudit(1)
	return wl.run(t, e, 0, true), j.Matches(0)
}

// checkBound holds every match to Theorem 1: its estimate is within ε of
// the exact Jaccard similarity of its frames and its query, and its audit
// record says the same.
func (wl *workload) checkBound(t *testing.T, c cell, o outcome, recs []trace.MatchRecord) {
	t.Helper()
	eps := trace.ErrorBound(c.config().K, trace.DefaultConfidence)
	if len(recs) != len(o.matches) {
		t.Fatalf("%d provenance records for %d matches", len(recs), len(o.matches))
	}
	for i, m := range o.matches {
		exact := partition.Jaccard(wl.stream[m.StartFrame:m.EndFrame], wl.queries[m.QueryID])
		if d := math.Abs(m.Similarity - exact); d > eps {
			t.Errorf("match %+v: estimate off the exact Jaccard %.3f by %.3f > ε = %.3f", m, exact, d, eps)
		}
		a := recs[i].Audit
		if a == nil {
			t.Errorf("match %+v not audited", m)
			continue
		}
		if a.Exact != exact || a.Violated || a.Bound != eps {
			t.Errorf("match %+v: audit %+v, exact Jaccard %v, ε %v", m, *a, exact, eps)
		}
	}
}

// reference is the run every axis of c is held to. A cell without matches
// would let every contract hold vacuously.
func (wl *workload) reference(t *testing.T, c cell) outcome {
	ref := wl.run(t, wl.engine(t, c.config()), 0, false)
	if len(ref.matches) == 0 {
		t.Fatalf("%s: the reference found no matches; the contracts would hold vacuously", c)
	}
	return ref
}

// eachCell runs axis on every cell, each in a parallel subtest of its own,
// with the workload and the cell's reference.
func eachCell(t *testing.T, axis func(t *testing.T, wl *workload, c cell, ref outcome)) {
	wl := newWorkload()
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			axis(t, wl, c, wl.reference(t, c))
		})
	}
}

func TestEngineDeterministic(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.run(t, wl.engine(t, c.config()), 0, false).check(t, "rerun", ref)
	})
}

// TestEngineDeterministicMultiQuery: the plane built in another order gives
// the same reports; windows relating to several queries report them in id
// order, not in subscription order.
func TestEngineDeterministicMultiQuery(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		e, err := core.NewEngine(c.config())
		if err != nil {
			t.Fatal(err)
		}
		for i := len(wl.initial) - 1; i >= 0; i-- {
			id := wl.initial[i]
			if err := e.AddQuery(id, wl.queries[id]); err != nil {
				t.Fatal(err)
			}
		}
		wl.run(t, e, 0, false).check(t, "resubscribed", ref)
	})
}

func TestPushFramesMatchesPushFrame(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.run(t, wl.engine(t, c.config()), 0, true).check(t, "batched", ref)
	})
}

func TestPlaneChurnEquivalence(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.churned(t, c.config()).check(t, "churned", ref)
	})
}

func TestParallelMatchesSerial(t *testing.T) {
	finishes := []struct {
		name string
		fn   func(*fleet.Pool)
	}{
		{"drain", (*fleet.Pool).Drain},
		{"two-drains", func(p *fleet.Pool) {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); p.Drain() }()
			}
			wg.Wait()
		}},
		// No barrier: each Detach(true) finds other streams queued.
		{"detach", func(*fleet.Pool) {}},
	}
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		for _, workers := range []int{1, 3, 4} {
			for _, fin := range finishes {
				for i, o := range wl.pooled(t, c, workers, fin.fn) {
					o.check(t, fmt.Sprintf("pooled workers=%d %s stream %d", workers, fin.name, i), ref)
				}
			}
		}
	})
}

func TestCrashPointSweep(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.restored(t, c.config(), c.config(), wl.cuts(t, true), ref)
	})
}

func TestPreFilterOutputEquivalence(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.run(t, wl.engine(t, flagged(c.config())), 0, false).check(t, "flagged", ref)
		wl.run(t, wl.engine(t, flagged(c.config())), 0, true).check(t, "flagged batched", ref)
	})
}

func TestPreFilterChurnFuzz(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		wl.churned(t, flagged(c.config())).check(t, "flagged churned", ref)
	})
}

func TestPreFilterSnapshotRoundTrip(t *testing.T) {
	var mu sync.Mutex
	written := map[bool]map[cell]map[int][]byte{} // by the writer's flag
	for _, rc := range []struct {
		name                string
		writeFlag, readFlag bool
	}{
		{"on-to-on", true, true},
		{"on-to-off", true, false},
		{"off-to-on", false, true},
	} {
		t.Run(rc.name, func(t *testing.T) {
			eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
				write, read := c.config(), c.config()
				write.PreFilter, read.PreFilter = rc.writeFlag, rc.readFlag
				ck := wl.restored(t, write, read, wl.cuts(t, false), ref)
				mu.Lock()
				defer mu.Unlock()
				if written[rc.writeFlag] == nil {
					written[rc.writeFlag] = map[cell]map[int][]byte{}
				}
				written[rc.writeFlag][c] = ck
			})
		})
	}
	if len(written[false]) != len(cells) || !reflect.DeepEqual(written[true], written[false]) {
		t.Error("checkpoint bytes differ with PreFilter set and clear")
	}
}

// TestDeterminismContracts holds the traced axis and the cross-cell
// contracts.
func TestDeterminismContracts(t *testing.T) {
	eachCell(t, func(t *testing.T, wl *workload, c cell, ref outcome) {
		o, recs := wl.traced(t, c)
		o.check(t, "traced", ref)
		wl.checkBound(t, c, o, recs)
	})

	t.Run("across-cells", func(t *testing.T) {
		wl := newWorkload()
		refs := map[cell]outcome{}
		for _, c := range cells {
			refs[c] = wl.reference(t, c)
		}
		for _, o := range []core.Order{core.Sequential, core.Geometric} {
			index, scan := refs[cell{core.Bit, o, true}], refs[cell{core.Bit, o, false}]
			if !reflect.DeepEqual(index.matches, scan.matches) {
				t.Errorf("bit %s: the index changes the matches\nindex   %+v\nnoindex %+v", o, index.matches, scan.matches)
			}
			index, scan = refs[cell{core.Sketch, o, true}], refs[cell{core.Sketch, o, false}]
			all := map[core.Match]bool{}
			for _, m := range scan.matches {
				all[m] = true
			}
			for _, m := range index.matches {
				if !all[m] {
					t.Errorf("sketch %s: %+v found with the index, not without it", o, m)
				}
			}
		}
	})
}
