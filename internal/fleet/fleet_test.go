package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vdsms/internal/core"
)

// idStream generates a shot-structured cell-id stream for synthetic
// content (same generator shape as the core engine tests).
func idStream(rng *rand.Rand, content, frames int) []uint64 {
	base := uint64(content) * 100000
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

func testConfig(w int) Config {
	return Config{
		Engine: core.Config{
			K: 64, Seed: 7, Delta: 0.6, Lambda: 2, WindowFrames: 10,
			Order: core.Sequential, Method: core.Bit, UseIndex: true,
		},
		Workers: w,
	}
}

// streamWorkload builds stream i's frame batches: background content with
// the query clip embedded, so most streams produce matches.
func streamWorkload(i, w int, query []uint64) [][]uint64 {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	var frames []uint64
	frames = append(frames, idStream(rng, 5000+i, (3+i%3)*w)...)
	frames = append(frames, query...)
	frames = append(frames, idStream(rng, 6000+i, (2+i%2)*w)...)
	// Uneven batch sizes exercise window-boundary straddling.
	var batches [][]uint64
	for off := 0; off < len(frames); {
		n := 7 + (i+off)%11
		if off+n > len(frames) {
			n = len(frames) - off
		}
		batches = append(batches, frames[off:off+n])
		off += n
	}
	return batches
}

func TestPoolLifecycle(t *testing.T) {
	p, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	s, err := p.Attach("cam-1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p.Stream("cam-1") != s {
		t.Fatal("attach not visible")
	}
	if _, err := p.Attach("cam-1"); !errors.Is(err, ErrDuplicateStream) {
		t.Fatalf("duplicate attach: %v", err)
	}
	if _, err := p.Attach(""); err == nil {
		t.Fatal("empty id accepted")
	}

	rng := rand.New(rand.NewSource(3))
	if err := p.AddQuery(1, idStream(rng, 1, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(idStream(rng, 9, 35)); err != nil {
		t.Fatal(err)
	}
	s.Detach(true)
	if st := s.Stats(); st.Frames != 35 || st.Windows != 4 {
		t.Fatalf("drained detach: frames=%d windows=%d", st.Frames, st.Windows)
	}
	if err := s.Push([]uint64{1}); !errors.Is(err, ErrDetached) {
		t.Fatalf("push after detach: %v", err)
	}
	if p.Len() != 0 {
		t.Fatal("detach left stream attached")
	}
	// The id is reusable after detach.
	if _, err := p.Attach("cam-1"); err != nil {
		t.Fatal(err)
	}

	p.Close()
	if _, err := p.Attach("cam-2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("attach after close: %v", err)
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxStreams = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Attach("a"); err != nil {
		t.Fatal(err)
	}
	b, err := p.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Attach("c"); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("over-limit attach: %v", err)
	}
	b.Detach(false)
	if _, err := p.Attach("c"); err != nil {
		t.Fatalf("attach after detach freed a slot: %v", err)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueFrames = 25
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Block the single worker with a decoy stream pass so frames queue up.
	blocker := make(chan struct{})
	decoy, err := p.Attach("decoy")
	if err != nil {
		t.Fatal(err)
	}
	decoy.emu.Lock()
	go func() { <-blocker; decoy.emu.Unlock() }()
	if err := decoy.Push([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	s, err := p.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(make([]uint64, 20)); err != nil {
		t.Fatalf("push within budget: %v", err)
	}
	if err := s.Push(make([]uint64, 10)); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("push beyond budget: %v", err)
	}
	if got := s.Pending(); got != 20 {
		t.Fatalf("rejected batch partially admitted: pending=%d", got)
	}
	// A batch the empty queue could not hold is a different error, so that
	// nobody waits for room that cannot come, and is not backpressure.
	rejected := telPushRejected.Value()
	if err := s.Push(make([]uint64, 31)); !errors.Is(err, ErrBatchTooLarge) || errors.Is(err, ErrBackpressure) {
		t.Fatalf("push larger than the whole budget: %v", err)
	}
	if got := telPushRejected.Value(); got != rejected {
		t.Fatalf("oversized batch counted as backpressure: %d -> %d", rejected, got)
	}
	// Whole-batch semantics: a smaller batch still fits.
	if err := s.Push(make([]uint64, 5)); err != nil {
		t.Fatalf("push filling exactly to budget: %v", err)
	}
	close(blocker)
	p.Drain()
	if got := s.Pending(); got != 0 {
		t.Fatalf("drain left %d pending", got)
	}
	if st := s.Stats(); st.Frames != 25 {
		t.Fatalf("processed %d frames, want 25", st.Frames)
	}
}

// runIsolated replays stream i's workload through a private single-stream
// engine with its own query set — the reference the fleet must match
// byte for byte.
func runIsolated(t *testing.T, cfg core.Config, batches [][]uint64, qids []int, qcells [][]uint64) ([]core.Match, core.Stats) {
	t.Helper()
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddQueries(qids, qcells); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		e.PushFrames(b)
	}
	e.Flush()
	return e.Matches, e.Stats()
}

// TestFleetEquivalence is the core correctness property: N streams
// multiplexed over a small worker pool, pushed from concurrent producers,
// must each produce exactly the matches and stats of an isolated engine
// fed the same frames — same query subscription sequence, same windows,
// same plane contents — whichever goroutines ran their passes: the workers,
// one draining goroutine, two, or the detaching goroutines alone.
func TestFleetEquivalence(t *testing.T) {
	finishes := []struct {
		name string
		fn   func(p *Pool)
	}{
		{"drain", func(p *Pool) { p.Drain() }},
		{"two drains", func(p *Pool) {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); p.Drain() }()
			}
			wg.Wait()
		}},
		// No barrier: each Detach(true) below finds other streams queued.
		{"detach", func(*Pool) {}},
	}
	for _, workers := range []int{1, 3, 4} {
		for _, f := range finishes {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, f.name), func(t *testing.T) {
				testFleetEquivalence(t, workers, f.fn)
			})
		}
	}
}

func testFleetEquivalence(t *testing.T, workers int, finish func(*Pool)) {
	const nStreams = 24
	cfg := testConfig(workers)
	cfg.Engine.PreFilter = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	qrng := rand.New(rand.NewSource(77))
	query := idStream(qrng, 1, 40)
	decoy := idStream(qrng, 2, 30)
	qids := []int{1, 2}
	qcells := [][]uint64{query, decoy}
	if err := p.AddQueries(qids, qcells); err != nil {
		t.Fatal(err)
	}

	streams := make([]*Stream, nStreams)
	workloads := make([][][]uint64, nStreams)
	pushed := 0
	for i := range streams {
		s, err := p.Attach(fmt.Sprintf("cam-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
		workloads[i] = streamWorkload(i, cfg.Engine.WindowFrames, query)
		for _, b := range workloads[i] {
			pushed += len(b)
		}
	}

	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func(s *Stream, batches [][]uint64) {
			defer wg.Done()
			for _, b := range batches {
				for {
					err := s.Push(b)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrBackpressure) {
						t.Error(err)
						return
					}
					s.waitIdle() // retry once the queue drains
				}
			}
		}(s, workloads[i])
	}
	wg.Wait()
	finish(p)

	matched := 0
	for i, s := range streams {
		s.Detach(true) // flush the final partial window, like the reference
		wantM, wantS := runIsolated(t, cfg.Engine, workloads[i], qids, qcells)
		gotM, gotS := s.Matches(), s.Stats()
		if !reflect.DeepEqual(gotM, wantM) {
			t.Errorf("stream %d: matches diverge from isolated engine:\nfleet    %+v\nisolated %+v", i, gotM, wantM)
		}
		if it, ct := gotS, wantS; !reflect.DeepEqual(it, ct) {
			t.Errorf("stream %d: stats diverge:\nfleet    %+v\nisolated %+v", i, it, ct)
		}
		if len(gotM) > 0 {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no stream matched; equivalence check vacuous")
	}
	if got := runnerFrames(p); got != int64(pushed) {
		t.Errorf("runner rows count %d frames, %d were pushed", got, pushed)
	}
}

// runnerFrames sums the frames of every WorkerStats row.
func runnerFrames(p *Pool) int64 {
	var n int64
	for _, w := range p.WorkerStats() {
		n += w.Frames
	}
	return n
}

// TestFleetChurnUnderLoad drives concurrent pushes while the shared plane
// churns. There is no per-stream reference (churn timing is racy by
// design); the assertions are the safety properties: no data race (CI runs
// this under -race) between the churn and passes on workers or on helping
// drainers, the pre-churn query is found by every stream that
// carries it, and every stream ends on a plane no newer than the set.
func TestFleetChurnUnderLoad(t *testing.T) {
	const nStreams = 16
	cfg := testConfig(4)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	qrng := rand.New(rand.NewSource(5))
	query := idStream(qrng, 1, 40)
	if err := p.AddQuery(1, query); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		crng := rand.New(rand.NewSource(6))
		id := 100
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.AddQuery(id, idStream(crng, id, 20)); err != nil {
				t.Error(err)
				return
			}
			if id%2 == 0 {
				if err := p.RemoveQuery(id); err != nil {
					t.Error(err)
					return
				}
			}
			id++
		}
	}()

	// Two goroutines drain throughout, so passes run on helpers as well as
	// on workers while the plane changes under them.
	for i := 0; i < 2; i++ {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.Drain()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	streams := make([]*Stream, nStreams)
	for i := range streams {
		s, err := p.Attach(fmt.Sprintf("s-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
		wg.Add(1)
		go func(i int, s *Stream) {
			defer wg.Done()
			for _, b := range streamWorkload(i, cfg.Engine.WindowFrames, query) {
				for errors.Is(s.Push(b), ErrBackpressure) {
					s.waitIdle()
				}
			}
		}(i, s)
	}
	wg.Wait()
	close(stop)
	churnWG.Wait()
	p.Drain()

	for i, s := range streams {
		s.Detach(true)
		found := false
		for _, m := range s.Matches() {
			if m.QueryID == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("stream %d lost the stable query under churn", i)
		}
		if s.PlaneVersion() > p.Queries().Version() {
			t.Errorf("stream %d plane version %d ahead of set version %d",
				i, s.PlaneVersion(), p.Queries().Version())
		}
	}
}

// TestFleetSmoke is the CI gate behind `make fleet-smoke`: 64 streams,
// concurrent producers and live query churn under -race, then an
// equivalence spot-check of a sample of streams against isolated engines.
func TestFleetSmoke(t *testing.T) {
	const nStreams = 64
	cfg := testConfig(0) // default workers = GOMAXPROCS
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	qrng := rand.New(rand.NewSource(21))
	query := idStream(qrng, 1, 40)
	qids := []int{1, 2, 3}
	qcells := [][]uint64{query, idStream(qrng, 2, 30), idStream(qrng, 3, 50)}
	if err := p.AddQueries(qids, qcells); err != nil {
		t.Fatal(err)
	}

	streams := make([]*Stream, nStreams)
	workloads := make([][][]uint64, nStreams)
	var wg sync.WaitGroup
	for i := range streams {
		s, err := p.Attach(fmt.Sprintf("cam-%03d", i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
		workloads[i] = streamWorkload(i, cfg.Engine.WindowFrames, query)
		wg.Add(1)
		go func(s *Stream, batches [][]uint64) {
			defer wg.Done()
			for _, b := range batches {
				for errors.Is(s.Push(b), ErrBackpressure) {
					s.waitIdle()
				}
			}
		}(s, workloads[i])
	}
	wg.Wait()
	p.Drain()

	for i, s := range streams {
		s.Detach(true)
		if s.Stats().Frames == 0 {
			t.Fatalf("stream %d processed nothing", i)
		}
	}
	// Spot-check equivalence on a deterministic sample.
	for _, i := range []int{0, 17, 40, 63} {
		wantM, wantS := runIsolated(t, cfg.Engine, workloads[i], qids, qcells)
		if gotM := streams[i].Matches(); !reflect.DeepEqual(gotM, wantM) {
			t.Errorf("stream %d: matches diverge from isolated engine", i)
		}
		if a, b := streams[i].Stats(), wantS; !reflect.DeepEqual(a, b) {
			t.Errorf("stream %d: stats diverge:\nfleet    %+v\nisolated %+v", i, a, b)
		}
	}
}
