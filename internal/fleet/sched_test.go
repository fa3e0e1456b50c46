package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds; the test fails if it never does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// returns fails the test if fn has not returned within ten seconds.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// stall attaches a stream, pushes one window into it and holds its engine
// lock until the returned release is called, so that whichever runner pops
// it — a worker when only workers are running — stays inside that pass.
func stall(t *testing.T, p *Pool, id string) (s *Stream, release func()) {
	t.Helper()
	s, err := p.Attach(id)
	if err != nil {
		t.Fatal(err)
	}
	s.emu.Lock()
	if err := s.Push(make([]uint64, p.cfg.Engine.WindowFrames)); err != nil {
		t.Fatal(err)
	}
	return s, sync.OnceFunc(s.emu.Unlock)
}

func readyLen(p *Pool) int {
	ready, _ := p.Backlog()
	return ready
}

// TestDrainHelps: with the only worker stuck in one stream's pass, Drain
// itself runs the other 63 ready streams, and the helpers' row says so.
func TestDrainHelps(t *testing.T) {
	const nStreams = 64
	p, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w := p.cfg.Engine.WindowFrames

	_, release := stall(t, p, "stalled")
	defer release()
	waitFor(t, "the worker to pop the stalled stream", func() bool { return readyLen(p) == 0 })

	others := make([]*Stream, nStreams-1)
	for i := range others {
		if others[i], err = p.Attach(fmt.Sprintf("cam-%02d", i)); err != nil {
			t.Fatal(err)
		}
		if err := others[i].Push(make([]uint64, w)); err != nil {
			t.Fatal(err)
		}
	}
	if ready, frames := p.Backlog(); ready != nStreams-1 || frames != int64(nStreams*w) {
		t.Fatalf("backlog = %d streams, %d frames; want %d, %d", ready, frames, nStreams-1, nStreams*w)
	}

	drained := make(chan struct{})
	go func() { defer close(drained); p.Drain() }()
	helped := func() WorkerStats { ws := p.WorkerStats(); return ws[len(ws)-1] }
	waitFor(t, "Drain to run the ready streams", func() bool { return helped().Passes == nStreams-1 })
	for i, s := range others {
		if st := s.Stats(); st.Frames != w || s.Pending() != 0 {
			t.Fatalf("stream %d: %d frames processed, %d pending", i, st.Frames, s.Pending())
		}
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a pass was in flight")
	default:
	}
	release()
	returns(t, "Drain", func() { <-drained })

	ws := p.WorkerStats()
	want := []WorkerStats{
		{ID: 0, Passes: 1, Frames: int64(w)},
		{ID: -1, Passes: nStreams - 1, Frames: int64((nStreams - 1) * w)},
	}
	if len(ws) != 2 || ws[0] != want[0] || ws[1] != want[1] {
		t.Fatalf("WorkerStats = %+v, want %+v", ws, want)
	}
	if ready, frames := p.Backlog(); ready != 0 || frames != 0 {
		t.Fatalf("backlog after Drain = %d streams, %d frames", ready, frames)
	}
}

// TestWaitIdleDoesNotWork: a goroutine whose stream is idle is not drafted
// into running other streams' passes.
func TestWaitIdleDoesNotWork(t *testing.T) {
	p, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, release := stall(t, p, "stalled")
	defer release()
	waitFor(t, "the worker to pop the stalled stream", func() bool { return readyLen(p) == 0 })

	queued, err := p.Attach("queued")
	if err != nil {
		t.Fatal(err)
	}
	if err := queued.Push(make([]uint64, 10)); err != nil {
		t.Fatal(err)
	}
	idle, err := p.Attach("idle")
	if err != nil {
		t.Fatal(err)
	}
	returns(t, "Detach of an idle stream", func() { idle.Detach(true) })
	if got := queued.Pending(); got != 10 {
		t.Fatalf("detaching an idle stream ran another stream's pass: pending=%d", got)
	}
}

// TestClosedPool: after Close a push is refused whole, and nothing that
// waits on the pool hangs on the frames Close abandoned.
func TestClosedPool(t *testing.T) {
	p, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, release := stall(t, p, "stalled")
	waitFor(t, "the worker to pop the stalled stream", func() bool { return readyLen(p) == 0 })
	s, err := p.Attach("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(make([]uint64, 10)); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { defer close(closed); p.Close() }()
	waitFor(t, "Close to begin", p.closed.Load)
	release()
	returns(t, "Close", func() { <-closed })
	if got := s.Stats().Frames; got != 0 {
		t.Fatalf("a worker took a new pass after Close: %d frames", got)
	}

	rejected := telPushRejected.Value()
	if err := s.Push(make([]uint64, 10)); !errors.Is(err, ErrClosed) || errors.Is(err, ErrBackpressure) {
		t.Fatalf("push after close: %v", err)
	}
	if got := s.Pending(); got != 10 {
		t.Fatalf("refused push changed the queue: pending=%d", got)
	}
	if got := telPushRejected.Value(); got != rejected {
		t.Fatalf("push after close counted as backpressure: %d -> %d", rejected, got)
	}
	returns(t, "Drain on a closed pool", p.Drain)
	returns(t, "waitIdle on a closed pool", s.waitIdle)
	returns(t, "Detach(true) on a closed pool", func() { s.Detach(true) })
	if ready, _ := p.Backlog(); ready != 0 {
		t.Fatalf("closed pool still holds %d ready streams", ready)
	}
	p.Close() // idempotent
}

// TestHelperStopsAtClose: a goroutine helping from Drain finishes the pass
// it is in when Close begins and takes no other.
func TestHelperStopsAtClose(t *testing.T) {
	p, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	_, releaseWorker := stall(t, p, "worker's")
	defer releaseWorker()
	waitFor(t, "the worker to pop its stream", func() bool { return readyLen(p) == 0 })

	mine, releaseHelper := stall(t, p, "helper's")
	defer releaseHelper()
	next, err := p.Attach("next")
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Push(make([]uint64, 10)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { defer close(drained); p.Drain() }()
	waitFor(t, "Drain to pop the helper's stream", func() bool { return readyLen(p) == 1 })

	closed := make(chan struct{})
	go func() { defer close(closed); p.Close() }()
	waitFor(t, "Close to begin", p.closed.Load)
	releaseWorker()
	returns(t, "Close", func() { <-closed })
	releaseHelper()
	returns(t, "Drain", func() { <-drained })

	if got := mine.Stats().Frames; got != 10 {
		t.Errorf("the pass in flight at Close processed %d frames, want 10", got)
	}
	if got := next.Stats().Frames; got != 0 {
		t.Errorf("a helper took a new pass after Close: %d frames", got)
	}
}

// TestCloseRacesDrain closes a pool under two helping drainers and live
// producers; run under -race. Everything must return, whatever was queued.
func TestCloseRacesDrain(t *testing.T) {
	for round := 0; round < 20; round++ {
		p, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			s, err := p.Attach(fmt.Sprintf("s-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := s.Push(make([]uint64, 7))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						if !errors.Is(err, ErrBackpressure) {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}
			}()
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !p.closed.Load() {
					p.Drain()
				}
			}()
		}
		waitFor(t, "some passes", func() bool { return runnerFrames(p) > 0 })
		p.Close()
		returns(t, "producers and drainers", wg.Wait)
	}
}

// TestReadyQueueDoesNotPin: a stream that has been through the ready queue
// and detached is garbage once its owner drops it.
func TestReadyQueueDoesNotPin(t *testing.T) {
	p, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const nStreams, burst = 1000, 50
	var freed atomic.Int64
	for base := 0; base < nStreams; base += burst {
		// The worker is held while a burst queues up, so that the ready
		// queue really holds all of it at once.
		stalled, release := stall(t, p, "stalled")
		waitFor(t, "the worker to pop the stalled stream", func() bool { return readyLen(p) == 0 })
		streams := make([]*Stream, burst)
		for i := range streams {
			s, err := p.Attach(fmt.Sprintf("cam-%d", base+i))
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(s, func(*Stream) { freed.Add(1) })
			if err := s.Push(make([]uint64, 10)); err != nil {
				t.Fatal(err)
			}
			streams[i] = s
		}
		release()
		for _, s := range streams {
			s.Detach(true)
		}
		stalled.Detach(true)
	}
	waitFor(t, "every detached stream to be collected", func() bool {
		runtime.GC()
		return freed.Load() == nStreams
	})
}

// TestOneRunnerPerStream hammers a few streams from 8 producers while 3
// workers and 2 drainers compete for their passes. runPass panics if it
// finds a pass already running, so surviving is the assertion; the counts
// show that no frame was lost or run twice.
func TestOneRunnerPerStream(t *testing.T) {
	p, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	streams := make([]*Stream, 4)
	for i := range streams {
		if streams[i], err = p.Attach(fmt.Sprintf("s-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var pushed atomic.Int64
	var producers, drainers sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
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
	for g := 0; g < 8; g++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			s := streams[g%len(streams)]
			for n := 0; n < 300; n++ {
				batch := make([]uint64, 1+(g+n)%13)
				for errors.Is(s.Push(batch), ErrBackpressure) {
					runtime.Gosched()
				}
				pushed.Add(int64(len(batch)))
			}
		}()
	}
	producers.Wait()
	close(stop)
	drainers.Wait()
	p.Drain()

	var processed int
	for _, s := range streams {
		s.Detach(true)
		processed += s.Stats().Frames
	}
	if int64(processed) != pushed.Load() || runnerFrames(p) != pushed.Load() {
		t.Fatalf("pushed %d frames, engines saw %d, runners counted %d", pushed.Load(), processed, runnerFrames(p))
	}
}
