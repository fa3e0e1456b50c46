// Package fleet multiplexes many monitored streams over one shared,
// versioned query plane — the multi-tenant deployment of the paper's
// single-stream engine. The detection state splits cleanly in two:
//
//   - The query side (sketches, bit-signature planes, Hash-Query index,
//     Bloom pre-filter) is identical for every stream and lives once, in a
//     core.QuerySet whose copy-on-write plane lets subscription churn land
//     without stalling any stream. Query memory is O(queries), not
//     O(queries × streams).
//   - The stream side (window buffer, candidate lists, dedup state, stats)
//     is private per stream and tiny, so thousands of streams fit where a
//     naive one-engine-per-stream deployment would duplicate the index a
//     thousand times.
//
// A Pool runs a fixed set of workers; each stream is pinned to one worker
// by id hash, so its engine — which is not safe for concurrent use — only
// ever runs on that worker, while different streams progress in parallel.
// Producers hand frames to Stream.Push, which appends to a bounded
// per-stream queue and returns immediately; a full queue rejects the batch
// with ErrBackpressure rather than blocking the producer or growing without
// bound (admission control at ingest, matching the overload policy of
// internal/degrade). Per-stream output is byte-identical to running the same
// frames through an isolated single-stream engine: the worker serialises
// each stream's windows, and the matching kernel is deterministic.
package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
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
	// ErrClosed reports an operation on a closed pool.
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
	// fleet-wide. Engine.Workers is intra-window parallelism per stream;
	// leave it 0 in fleet deployments — parallelism comes from the pool.
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
	closed  bool

	workers []*worker
	wg      sync.WaitGroup

	// queued aggregates pending+in-flight frames across streams, mirrored
	// into the vcd_fleet_queue_frames gauge; queuedHW is its high-watermark
	// (the vcd_fleet_queue_depth gauge — how deep the backlog has ever run).
	queued   atomic.Int64
	queuedHW atomic.Int64
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

// NewWith builds a pool over an existing query plane (restore, or sharing
// with a legacy single-stream engine). cfg.Engine.K must match the set's.
func NewWith(cfg Config, qs *core.QuerySet) (*Pool, error) {
	if err := cfg.Engine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine.K != qs.K() {
		return nil, fmt.Errorf("fleet: engine K=%d but query set K=%d", cfg.Engine.K, qs.K())
	}
	cfg = cfg.normalized()
	p := &Pool{cfg: cfg, qs: qs, streams: make(map[string]*Stream)}
	p.workers = make([]*worker, cfg.Workers)
	for i := range p.workers {
		w := &worker{id: i}
		w.cond = sync.NewCond(&w.mu)
		p.workers[i] = w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run()
		}()
	}
	telWorkers.Set(float64(cfg.Workers))
	p.publishPlaneGauges()
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
func (p *Pool) AddQuery(id int, cellIDs []uint64) error {
	err := p.qs.Add(id, cellIDs)
	p.publishPlaneGauges()
	return err
}

// AddQueries subscribes a batch in one bulk index build and one plane
// version.
func (p *Pool) AddQueries(ids []int, cellIDs [][]uint64) error {
	err := p.qs.AddBatch(ids, cellIDs)
	p.publishPlaneGauges()
	return err
}

// RemoveQuery unsubscribes a query fleet-wide.
func (p *Pool) RemoveQuery(id int) error {
	err := p.qs.Remove(id)
	p.publishPlaneGauges()
	return err
}

// PlaneBytes returns the shared query plane's memory footprint — the term
// that would be multiplied by the stream count without the split.
func (p *Pool) PlaneBytes() int { return p.qs.PlaneBytes() }

func (p *Pool) publishPlaneGauges() {
	telPlaneBytes.Set(float64(p.qs.PlaneBytes()))
	telPlaneVersion.Set(float64(p.qs.Version()))
}

// workerFor pins a stream id to a worker. FNV-1a keeps the pinning stable
// across attach/detach cycles and checkpoint restores.
func (p *Pool) workerFor(id string) *worker {
	h := fnv.New32a()
	h.Write([]byte(id))
	return p.workers[int(h.Sum32())%len(p.workers)]
}

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
	return p.attach(id, eng)
}

func (p *Pool) attach(id string, eng *core.Engine) (*Stream, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
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
	s := &Stream{id: id, p: p, w: p.workerFor(id), eng: eng}
	s.done = sync.NewCond(&s.qmu)
	// Fleet engines report spans into the process collector under their
	// stream id — wired before the stream is published, so no pass can race
	// the assignment.
	eng.SetPerf(perfobs.Default, id)
	p.streams[id] = s
	telStreamsActive.Set(float64(len(p.streams)))
	return s, nil
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

// Drain blocks until every stream's pending queue is empty and no worker
// pass is in flight. Producers must pause pushing for Drain to terminate;
// it is the quiescence barrier Checkpoint uses.
func (p *Pool) Drain() {
	p.mu.Lock()
	streams := make([]*Stream, 0, len(p.streams))
	for _, s := range p.streams {
		streams = append(streams, s)
	}
	p.mu.Unlock()
	for _, s := range streams {
		s.waitIdle()
	}
}

// Close stops the workers. Attached streams stay readable (Stats, Matches)
// but stop processing; pending queues are abandoned. Call Drain first for
// a graceful stop.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, w := range p.workers {
		w.shutdown()
	}
	p.wg.Wait()
}

// A Stream is one monitored stream of a pool: a private engine plus a
// bounded ingest queue, pinned to one worker.
type Stream struct {
	id string
	p  *Pool
	w  *worker

	// qmu guards the ingest queue and scheduling flags. Push and the
	// worker exchange frames under it; it is never held while the engine
	// runs, so Push returns in O(len(frames)) regardless of window cost.
	qmu        sync.Mutex
	pending    []uint64
	inflight   int
	enqueued   bool
	processing bool
	detached   bool
	done       *sync.Cond // broadcast when a pass ends with an empty queue
	// enqAt marks when the current queue generation went non-empty and
	// wakeAt when the worker wake was signalled — the queue-wait and
	// worker-hop span sources. Zero when timing is off (see timing()).
	enqAt  time.Time
	wakeAt time.Time

	// emu guards the engine: the owning worker holds it across PushFrames,
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
		perfobs.DefaultOutliers.ObserveBackpressure(s.id, int64(len(cellIDs)))
		return fmt.Errorf("%w: stream %q holds %d frames, batch of %d exceeds budget %d",
			ErrBackpressure, s.id, depth, len(cellIDs), s.p.cfg.QueueFrames)
	}
	fresh := len(s.pending) == 0 && s.enqAt.IsZero()
	s.pending = append(s.pending, cellIDs...)
	wake := !s.enqueued && !s.processing
	if wake {
		s.enqueued = true
	}
	if (fresh || wake) && s.timing() {
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
		s.w.enqueue(s)
	}
	return nil
}

// timing reports whether queue-wait/worker-hop clock reads should run:
// telemetry is on or the engine's span sampler is armed. Called with qmu
// held; the engine's perf wiring is set before the stream is published and
// never changes, so reading it here is safe.
func (s *Stream) timing() bool {
	return telemetry.Enabled() || s.eng.PerfArmed()
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

// runPass is one worker visit: swap out everything pending, run it through
// the engine, then reschedule if more arrived meanwhile. Only the pinned
// worker calls it, so engine access is serialised per stream while other
// streams' passes run on other workers.
func (s *Stream) runPass() {
	s.qmu.Lock()
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
		s.w.passes.Add(1)
		s.w.frames.Add(int64(len(batch)))
		s.emu.Lock()
		if qwaitNS > 0 {
			s.eng.AddPendingSpanNS(perfobs.StageQueueWait, qwaitNS)
			s.eng.AddPendingSpanNS(perfobs.StageWorkerHop, hopNS)
			if telemetry.Enabled() {
				telQueueWait.Observe(float64(qwaitNS) / 1e9)
				telWorkerHop.Observe(float64(hopNS) / 1e9)
			}
		}
		s.eng.PushFramesOn(&s.w.probe, batch)
		s.emu.Unlock()
		s.p.noteQueued(int64(-len(batch)))
	}

	s.qmu.Lock()
	s.inflight = 0
	s.processing = false
	again := len(s.pending) > 0
	if again {
		s.enqueued = true
		if !s.enqAt.IsZero() {
			// The re-enqueue is the wake signal for the leftover frames.
			s.wakeAt = time.Now()
		}
	} else {
		s.done.Broadcast()
	}
	s.qmu.Unlock()
	if again {
		s.w.enqueue(s)
	}
}

// waitIdle blocks until the stream has no queued or in-flight frames.
func (s *Stream) waitIdle() {
	s.qmu.Lock()
	for s.enqueued || s.processing || len(s.pending) > 0 {
		s.done.Wait()
	}
	s.qmu.Unlock()
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
	closed := s.p.closed
	if s.p.streams[s.id] == s {
		delete(s.p.streams, s.id)
		telStreamsActive.Set(float64(len(s.p.streams)))
	}
	s.p.mu.Unlock()

	if drain && !closed {
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

// worker drives the streams pinned to it, one ready-list pass at a time.
type worker struct {
	id    int
	mu    sync.Mutex
	cond  *sync.Cond
	ready []*Stream
	stop  bool

	// passes and frames count completed non-empty passes and the frames
	// they carried — the per-worker load surface of Pool.WorkerStats.
	passes atomic.Int64
	frames atomic.Int64

	// probe is lent to the engine of whichever stream the worker is running
	// a pass for, so the pool holds one probe scratch per worker, not per
	// stream. Touched only by the worker's goroutine, inside runPass.
	probe qindex.ProbeScratch
}

// WorkerStats describes one pool worker's load: how many streams hash to
// it, how much work it has done, and its current backlog.
type WorkerStats struct {
	// ID is the worker index streams are pinned to by id hash.
	ID int `json:"id"`
	// Streams is the number of attached streams pinned to this worker.
	Streams int `json:"streams"`
	// Passes and Frames count completed non-empty passes and their frames.
	Passes int64 `json:"passes"`
	Frames int64 `json:"frames"`
	// Ready is the worker's current ready-list length; QueuedFrames the
	// pending+in-flight frames across its pinned streams.
	Ready        int `json:"ready"`
	QueuedFrames int `json:"queuedFrames"`
}

// WorkerStats returns a per-worker load breakdown, ordered by worker id —
// the skew surface: a hot worker with many queued frames names the victim
// of an uneven stream-to-worker hash.
func (p *Pool) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		ready := len(w.ready)
		w.mu.Unlock()
		out[i] = WorkerStats{
			ID:     w.id,
			Passes: w.passes.Load(),
			Frames: w.frames.Load(),
			Ready:  ready,
		}
	}
	p.mu.Lock()
	streams := make([]*Stream, 0, len(p.streams))
	for _, s := range p.streams {
		streams = append(streams, s)
	}
	p.mu.Unlock()
	for _, s := range streams {
		out[s.w.id].Streams++
		out[s.w.id].QueuedFrames += s.Pending()
	}
	return out
}

func (w *worker) enqueue(s *Stream) {
	w.mu.Lock()
	w.ready = append(w.ready, s)
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *worker) next() *Stream {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.ready) == 0 && !w.stop {
		w.cond.Wait()
	}
	if len(w.ready) == 0 {
		return nil
	}
	s := w.ready[0]
	w.ready = w.ready[1:]
	return s
}

func (w *worker) shutdown() {
	w.mu.Lock()
	w.stop = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (w *worker) run() {
	for {
		s := w.next()
		if s == nil {
			return
		}
		s.runPass()
	}
}
