// Package fleet multiplexes many monitored streams over one shared,
// versioned query plane — the multi-tenant deployment of the paper's
// single-stream engine. The detection state splits cleanly in two:
//
//   - The query side (sketches, bit-signature planes, Hash-Query index,
//     pre-filter cell table) is identical for every stream and lives once, in a
//     core.QuerySet whose copy-on-write plane lets subscription churn land
//     without stalling any stream. Query memory is O(queries), not
//     O(queries × streams).
//   - The stream side (window buffer, candidate lists, dedup state, stats)
//     is private per stream and tiny, so thousands of streams fit where a
//     naive one-engine-per-stream deployment would duplicate the index a
//     thousand times.
//
// A Pool keeps one FIFO of streams that have frames to process. Its workers
// pop from it, and so does any goroutine that waits for the pool (Drain,
// Detach with drain): a stream's scheduling flags put it in the queue at
// most once and never while a pass is running, so its engine — which is
// not safe for concurrent use — runs on one goroutine at a time, whichever
// that is, while different streams progress in parallel.
// Producers hand frames to Stream.Push, which appends to a bounded
// per-stream queue and returns immediately; a full queue rejects the batch
// with ErrBackpressure rather than blocking the producer or growing without
// bound (admission control at ingest, matching the overload policy of
// internal/degrade). Per-stream output is byte-identical to running the same
// frames through an isolated single-stream engine: passes of one stream
// never overlap, and the matching kernel is deterministic.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/perfobs"
	"vdsms/internal/qindex"
	"vdsms/internal/telemetry"
)

// Errors surfaced by pool admission and stream ingest. Callers branch with
// errors.Is; the wrapped instances carry the concrete numbers.
var (
	// ErrClosed reports an Attach or Push on a closed pool. A rejected Push
	// consumed nothing.
	ErrClosed = errors.New("fleet: pool closed")
	// ErrDuplicateStream reports an Attach with an id already in use.
	ErrDuplicateStream = errors.New("fleet: stream id already attached")
	// ErrFleetFull reports an Attach rejected by admission control.
	ErrFleetFull = errors.New("fleet: stream limit reached")
	// ErrBackpressure reports a Push rejected because the stream's pending
	// queue is full. The frames were NOT consumed; the producer decides
	// whether to retry, thin, or drop (shed policy is the caller's).
	ErrBackpressure = errors.New("fleet: stream queue full")
	// ErrBatchTooLarge reports a Push of more frames than Config.QueueFrames:
	// no amount of draining admits it, so unlike ErrBackpressure it must not
	// be retried as it is. Nothing was consumed; the producer cuts the batch
	// or the pool gets deeper queues.
	ErrBatchTooLarge = errors.New("fleet: batch larger than stream queue")
	// ErrDetached reports a Push on a stream that has been detached.
	ErrDetached = errors.New("fleet: stream detached")
)

// Config configures a Pool.
type Config struct {
	// Engine is the per-stream detection configuration. Every stream of a
	// pool shares one query plane, so K, Seed and UseIndex are fixed
	// fleet-wide.
	Engine core.Config
	// Workers is the number of pool workers streams are multiplexed over.
	// Defaults to GOMAXPROCS.
	Workers int
	// MaxStreams caps concurrently attached streams; Attach beyond it
	// fails with ErrFleetFull. 0 means unlimited.
	MaxStreams int
	// QueueFrames bounds each stream's pending frames (queued plus
	// in-flight). A Push that would exceed it fails with ErrBackpressure,
	// one that alone exceeds it with ErrBatchTooLarge. Defaults to 8 windows.
	QueueFrames int
}

func (c Config) normalized() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueFrames < 1 {
		c.QueueFrames = 8 * c.Engine.WindowFrames
	}
	return c
}

// Pool is a fleet of monitored streams over one shared query plane.
type Pool struct {
	cfg Config
	qs  *core.QuerySet

	mu      sync.Mutex
	streams map[string]*Stream
	// closed is set once, by Close, before it wakes the runners.
	closed atomic.Bool

	// The scheduler. ready holds every stream whose enqueued flag is set, in
	// the order the flags were set, under sched. wake is signalled once per
	// stream entering ready and broadcast when a stream goes idle or the pool
	// closes, so a goroutine sleeping on it is either a worker with nothing
	// to pop or a helper whose stream is running elsewhere.
	sched   sync.Mutex
	wake    *sync.Cond
	ready   ring
	workers []*runner
	wg      sync.WaitGroup
	// helpers is the free list of the runners that goroutines waiting on the
	// pool run passes on, so that a drainer's scratch outlives its call;
	// helped is the load they all count into.
	helpers sync.Pool
	helped  load

	// queued aggregates pending+in-flight frames across streams, mirrored
	// into the vcd_fleet_queue_frames gauge; queuedHW is its high-watermark
	// (the vcd_fleet_queue_depth gauge — how deep the backlog has ever run).
	queued   atomic.Int64
	queuedHW atomic.Int64

	// obs is the observer each stream's engine gets, labelled with its id.
	obs core.Observer
}

// New builds a pool with a fresh query plane.
func New(cfg Config) (*Pool, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	qs, err := core.NewQuerySet(cfg.Engine.K, cfg.Engine.Seed, cfg.Engine.UseIndex)
	if err != nil {
		return nil, err
	}
	return NewWith(cfg, qs)
}

// NewWith builds a pool over an existing query plane, shared with a
// single-stream engine. cfg.Engine.K must match the set's.
func NewWith(cfg Config, qs *core.QuerySet) (*Pool, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	if err := qs.CheckConfig(cfg.Engine); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	p := &Pool{cfg: cfg, qs: qs, streams: make(map[string]*Stream)}
	p.wake = sync.NewCond(&p.sched)
	p.helpers.New = func() any { return &runner{load: &p.helped} }
	p.workers = make([]*runner, cfg.Workers)
	for i := range p.workers {
		r := &runner{load: new(load)}
		p.workers[i] = r
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.run(r, func() bool { return false })
		}()
	}
	telWorkers.Set(float64(cfg.Workers))
	return p, nil
}

// Config returns the pool configuration (normalised defaults applied).
func (p *Pool) Config() Config { return p.cfg }

// Queries returns the shared query plane.
func (p *Pool) Queries() *core.QuerySet { return p.qs }

// AddQuery subscribes a continuous query fleet-wide. The copy-on-write
// plane publishes the successor without stalling any stream: in-flight
// windows finish on the old version, the next window of every stream sees
// the new one.
func (p *Pool) AddQuery(id int, cellIDs []uint64) error { return p.qs.Add(id, cellIDs) }

// AddQueries subscribes a batch in one bulk index build and one plane
// version.
func (p *Pool) AddQueries(ids []int, cellIDs [][]uint64) error {
	return p.qs.AddBatch(ids, cellIDs)
}

// RemoveQuery unsubscribes a query fleet-wide.
func (p *Pool) RemoveQuery(id int) error { return p.qs.Remove(id) }

// PlaneBytes returns the shared query plane's memory footprint — the term
// that would be multiplied by the stream count without the split.
func (p *Pool) PlaneBytes() int { return p.qs.PlaneBytes() }

// Attach admits a new stream. The error is ErrClosed, ErrDuplicateStream
// or ErrFleetFull (wrapped with the concrete limit) — admission control
// rejects with a reason instead of queueing attach requests.
func (p *Pool) Attach(id string) (*Stream, error) {
	if id == "" {
		return nil, errors.New("fleet: empty stream id")
	}
	eng, err := core.NewEngineWith(p.cfg.Engine, p.qs)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if _, dup := p.streams[id]; dup {
		telStreamsRejected.Inc()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateStream, id)
	}
	if p.cfg.MaxStreams > 0 && len(p.streams) >= p.cfg.MaxStreams {
		telStreamsRejected.Inc()
		return nil, fmt.Errorf("%w: %d attached, limit %d", ErrFleetFull, len(p.streams), p.cfg.MaxStreams)
	}
	s := &Stream{id: id, p: p, eng: eng}
	// Wired before the stream is published, so no pass can race it.
	o := p.obs
	o.Stream = id
	eng.Observe(o)
	p.streams[id] = s
	telStreamsActive.Set(float64(len(p.streams)))
	return s, nil
}

// Observe sets the observer of every stream's engine, attached now or
// later, each labelled with its stream id. A new pool's observer keeps
// no spans. Call before pushing.
func (p *Pool) Observe(o core.Observer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = o
	for id, s := range p.streams {
		o.Stream = id
		s.eng.Observe(o)
	}
}

// Stream returns the attached stream with the given id, or nil.
func (p *Pool) Stream(id string) *Stream {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.streams[id]
}

// Len returns the number of attached streams.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.streams)
}

// StreamIDs returns the attached stream ids, sorted.
func (p *Pool) StreamIDs() []string {
	p.mu.Lock()
	ids := make([]string, 0, len(p.streams))
	for id := range p.streams {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Drain blocks until every stream's pending queue is empty and no pass is
// in flight, running queued passes on the calling goroutine meanwhile — so
// it may return up to one pass after the instant its streams went idle.
// Producers must pause pushing for Drain to terminate. On a closed pool it
// returns at once.
func (p *Pool) Drain() {
	r := p.helpers.Get().(*runner)
	defer p.helpers.Put(r)
	p.mu.Lock()
	for _, s := range p.streams {
		r.waitFor = append(r.waitFor, s)
	}
	p.mu.Unlock()
	p.helpUntilIdle(r)
}

// Close stops the workers. Attached streams stay readable (Stats, Matches)
// but stop processing and reject pushes; pending queues are abandoned, and
// a goroutine helping from Drain or Detach finishes the pass it is in and
// takes no other. Call Drain first for a graceful stop.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	// Under the lock, so that a runner that read the flag as unset is
	// asleep by the time of the broadcast.
	p.sched.Lock()
	p.ready = ring{}
	p.wake.Broadcast()
	p.sched.Unlock()
	p.wg.Wait()
}

// A Stream is one monitored stream of a pool: a private engine plus a
// bounded ingest queue.
type Stream struct {
	id string
	p  *Pool

	// qmu guards the ingest queue and scheduling flags. Push and the pass
	// exchange frames under it; it is never held while the engine runs, so
	// Push returns in O(len(frames)) regardless of window cost. enqueued
	// means the stream is in the pool's ready queue, processing that a pass
	// is running; they are never both set, and only the goroutine that
	// popped the stream clears the first and sets the second.
	qmu        sync.Mutex
	pending    []uint64
	inflight   int
	enqueued   bool
	processing bool
	detached   bool
	// enqAt marks when the current queue generation went non-empty and
	// wakeAt when the stream entered the ready queue — the queue-wait and
	// worker-hop span sources. Zero when the engine is not timed.
	enqAt  time.Time
	wakeAt time.Time

	// emu guards the engine: the running pass holds it across PushFrames,
	// readers (Stats, Matches) hold it briefly between windows.
	emu sync.Mutex
	eng *core.Engine
}

// ID returns the stream id.
func (s *Stream) ID() string { return s.id }

// Push appends key-frame cell ids to the stream's queue and returns
// without waiting for processing. The input is copied. A queue beyond
// Config.QueueFrames rejects the whole batch with ErrBackpressure
// (wrapped with the depths); partial admission would silently corrupt the
// stream's frame sequence. A batch that could not be admitted into an empty
// queue either is ErrBatchTooLarge, and is not counted as backpressure.
func (s *Stream) Push(cellIDs []uint64) error {
	if len(cellIDs) == 0 {
		return nil
	}
	if s.p.closed.Load() {
		return ErrClosed
	}
	if len(cellIDs) > s.p.cfg.QueueFrames {
		return fmt.Errorf("%w: stream %q, batch of %d frames, budget %d",
			ErrBatchTooLarge, s.id, len(cellIDs), s.p.cfg.QueueFrames)
	}
	s.qmu.Lock()
	if s.detached {
		s.qmu.Unlock()
		return ErrDetached
	}
	depth := len(s.pending) + s.inflight
	if depth+len(cellIDs) > s.p.cfg.QueueFrames {
		s.qmu.Unlock()
		telPushRejected.Inc()
		s.p.obs.Spans.Outliers().ObserveBackpressure(s.id, int64(len(cellIDs)))
		return fmt.Errorf("%w: stream %q holds %d frames, batch of %d exceeds budget %d",
			ErrBackpressure, s.id, depth, len(cellIDs), s.p.cfg.QueueFrames)
	}
	fresh := len(s.pending) == 0 && s.enqAt.IsZero()
	s.pending = append(s.pending, cellIDs...)
	wake := !s.enqueued && !s.processing
	if wake {
		s.enqueued = true
	}
	if (fresh || wake) && s.eng.Timed() {
		now := time.Now()
		if fresh {
			s.enqAt = now
		}
		if wake {
			s.wakeAt = now
		}
	}
	s.qmu.Unlock()

	telBatches.Inc()
	telFrames.Add(int64(len(cellIDs)))
	s.p.noteQueued(int64(len(cellIDs)))
	if wake {
		s.p.enqueue(s)
	}
	return nil
}

// noteQueued moves the pool-wide queued-frame gauge by delta and maintains
// the high-watermark gauge.
func (p *Pool) noteQueued(delta int64) {
	depth := p.queued.Add(delta)
	telQueueFrames.Set(float64(depth))
	for {
		hw := p.queuedHW.Load()
		if depth <= hw {
			return
		}
		if p.queuedHW.CompareAndSwap(hw, depth) {
			telQueueDepth.Set(float64(depth))
			return
		}
	}
}

// QueueDepthHW returns the deepest the pool-wide frame backlog has run.
func (p *Pool) QueueDepthHW() int64 { return p.queuedHW.Load() }

// runPass is one visit by the runner that popped s from the ready queue:
// swap out everything pending, run it through the engine, then reschedule
// if more arrived meanwhile. The batch's slice, which the engine does not
// keep, becomes the next pending queue when no push started a new one, so
// a steady stream's pushes append into memory they already grew. The stream re-enters the queue only at the end
// of the pass, so engine access is serialised per stream while other
// streams' passes run on other runners.
func (s *Stream) runPass(r *runner) {
	s.qmu.Lock()
	if s.processing {
		panic("fleet: stream " + s.id + " popped while a pass is running")
	}
	batch := s.pending
	s.pending = nil
	s.inflight = len(batch)
	s.enqueued = false
	s.processing = true
	// Close the queue-wait (first frame of the generation → pass start) and
	// worker-hop (wake signal → pass start) spans; attributed to the first
	// window the pass completes.
	var qwaitNS, hopNS int64
	if !s.enqAt.IsZero() {
		now := time.Now()
		qwaitNS = now.Sub(s.enqAt).Nanoseconds()
		if !s.wakeAt.IsZero() {
			hopNS = now.Sub(s.wakeAt).Nanoseconds()
		}
		s.enqAt, s.wakeAt = time.Time{}, time.Time{}
	}
	s.qmu.Unlock()

	if len(batch) > 0 {
		r.passes.Add(1)
		r.frames.Add(int64(len(batch)))
		s.emu.Lock()
		if qwaitNS > 0 {
			s.eng.Stage(perfobs.StageQueueWait, qwaitNS)
			s.eng.Stage(perfobs.StageWorkerHop, hopNS)
			if telemetry.Enabled() {
				perfobs.StageSeconds[perfobs.StageQueueWait].Observe(float64(qwaitNS) / 1e9)
				perfobs.StageSeconds[perfobs.StageWorkerHop].Observe(float64(hopNS) / 1e9)
			}
		}
		s.eng.PushFramesOn(&r.probe, batch)
		s.emu.Unlock()
		s.p.noteQueued(int64(-len(batch)))
	}

	s.qmu.Lock()
	s.inflight = 0
	s.processing = false
	if s.pending == nil {
		s.pending = batch[:0]
	}
	again := len(s.pending) > 0
	if again {
		s.enqueued = true
		if !s.enqAt.IsZero() {
			// The re-enqueue is the wake signal for the leftover frames.
			s.wakeAt = time.Now()
		}
	}
	s.qmu.Unlock()
	if again {
		s.p.enqueue(s)
		return
	}
	// Tell helpers that a stream went idle. Under the lock, so that one that
	// saw this stream busy is asleep by now, not about to sleep.
	s.p.sched.Lock()
	s.p.wake.Broadcast()
	s.p.sched.Unlock()
}

// idle reports whether the stream has no queued or in-flight frames.
func (s *Stream) idle() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return !s.enqueued && !s.processing && len(s.pending) == 0
}

// waitIdle blocks until the stream is idle or the pool closed, running
// queued passes — of any stream — on the calling goroutine meanwhile.
func (s *Stream) waitIdle() {
	r := s.p.helpers.Get().(*runner)
	defer s.p.helpers.Put(r)
	r.waitFor = append(r.waitFor, s)
	s.p.helpUntilIdle(r)
}

// Detach removes the stream from the pool. With drain true, queued frames
// are processed and a final partial window flushed before return; with
// drain false, queued frames are dropped and the engine left as the last
// completed pass left it. Either way the stream stays readable (Stats,
// Matches) but rejects further pushes, and its id becomes reusable.
func (s *Stream) Detach(drain bool) {
	s.qmu.Lock()
	if s.detached {
		s.qmu.Unlock()
		return
	}
	s.detached = true
	if !drain {
		dropped := len(s.pending)
		s.pending = nil
		if dropped > 0 {
			s.p.noteQueued(int64(-dropped))
		}
	}
	s.qmu.Unlock()

	s.p.mu.Lock()
	if s.p.streams[s.id] == s {
		delete(s.p.streams, s.id)
		telStreamsActive.Set(float64(len(s.p.streams)))
	}
	s.p.mu.Unlock()

	if drain && !s.p.closed.Load() {
		s.waitIdle()
		s.emu.Lock()
		s.eng.Flush()
		s.emu.Unlock()
	}
}

// Stats returns the stream's engine counters.
func (s *Stream) Stats() core.Stats {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.eng.Stats()
}

// Matches returns a copy of the matches reported so far.
func (s *Stream) Matches() []core.Match {
	s.emu.Lock()
	defer s.emu.Unlock()
	return append([]core.Match(nil), s.eng.Matches...)
}

// PlaneVersion returns the query-plane version the stream's last window
// ran against.
func (s *Stream) PlaneVersion() uint64 {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.eng.PlaneVersion()
}

// Pending returns the stream's queued plus in-flight frame count.
func (s *Stream) Pending() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.pending) + s.inflight
}

// A runner is a goroutine's seat at the ready queue: a pool worker for the
// life of the pool, or a helper for the length of one Drain or Detach.
type runner struct {
	// load is the worker's own, or the pool's helped for every helper.
	*load
	// probe is lent to the engine of whichever stream the runner is running
	// a pass for, so the pool holds one probe scratch per runner, not per
	// stream. Touched only inside runPass.
	probe qindex.ProbeScratch
	// waitFor holds, for a helper, the streams its Drain or Detach waits
	// for, in memory the helper keeps from call to call.
	waitFor []*Stream
}

// load counts completed non-empty passes and the frames they carried.
type load struct{ passes, frames atomic.Int64 }

// WorkerStats is the work one row of runners has done. The rows add up to
// the frames the pool has processed.
type WorkerStats struct {
	// ID is the worker's index, or -1 for the row of the helpers: goroutines
	// that ran passes while they waited in Drain or Detach.
	ID int `json:"id"`
	// Passes and Frames count completed non-empty passes and their frames.
	Passes int64 `json:"passes"`
	Frames int64 `json:"frames"`
}

// WorkerStats returns one row per worker, ordered by id, then the helpers'
// row. Any runner takes any stream, so a row far above the others means a
// run of long passes, not an unlucky assignment.
func (p *Pool) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, 0, len(p.workers)+1)
	for i, r := range p.workers {
		out = append(out, WorkerStats{ID: i, Passes: r.passes.Load(), Frames: r.frames.Load()})
	}
	return append(out, WorkerStats{ID: -1, Passes: p.helped.passes.Load(), Frames: p.helped.frames.Load()})
}

// Backlog returns the streams waiting in the ready queue and the frames
// queued or in flight across the pool.
func (p *Pool) Backlog() (ready int, queuedFrames int64) {
	p.sched.Lock()
	defer p.sched.Unlock()
	return p.ready.n, p.queued.Load()
}

// enqueue appends s, whose enqueued flag the caller has just set, to the
// ready queue and wakes one sleeping runner.
func (p *Pool) enqueue(s *Stream) {
	p.sched.Lock()
	if !p.closed.Load() {
		p.ready.push(s)
	}
	p.sched.Unlock()
	p.wake.Signal()
}

// run pops ready streams and runs their passes on r, sleeping while none
// is ready, until done reports true or the pool closes. done is asked
// before every pop, with sched held.
func (p *Pool) run(r *runner, done func() bool) {
	p.sched.Lock()
	for !p.closed.Load() && !done() {
		s := p.ready.pop()
		if s == nil {
			p.wake.Wait()
			continue
		}
		p.sched.Unlock()
		s.runPass(r)
		p.sched.Lock()
	}
	p.sched.Unlock()
}

// helpUntilIdle returns when every one of the helper r's waitFor streams
// is idle, or the pool closed, and empties the list. While one is not, the
// caller runs whatever is ready on r — the stream it waits for or any
// other — and sleeps only when nothing is.
func (p *Pool) helpUntilIdle(r *runner) {
	streams := r.waitFor
	p.run(r, func() bool {
		for len(streams) > 0 && streams[0].idle() {
			streams = streams[1:]
		}
		return len(streams) == 0
	})
	clear(r.waitFor) // hold no detached stream past the call
	r.waitFor = r.waitFor[:0]
}

// ring is a FIFO of streams in a circular buffer whose length is a power of
// two. pop clears the slot it empties, so the queue holds no stream it has
// handed out.
type ring struct {
	buf     []*Stream
	head, n int
}

func (q *ring) push(s *Stream) {
	if q.n == len(q.buf) {
		buf := make([]*Stream, max(8, 2*q.n))
		copy(buf[copy(buf, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
}

// pop returns the oldest stream, or nil when the queue is empty.
func (q *ring) pop() *Stream {
	if q.n == 0 {
		return nil
	}
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}
