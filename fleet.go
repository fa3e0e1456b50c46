// Fleet facade: many monitored streams over one shared query plane. This
// is the multi-tenant face of the Detector — where NewStream hands each
// concurrent stream its own goroutine and Monitor loop, a Fleet multiplexes
// N streams (1k+) over a fixed worker pool with bounded per-stream queues
// and admission control. See internal/fleet for the pool mechanics and
// DESIGN.md §13 for the memory model.
package vdsms

import (
	"io"
	"sync"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/fleet"
	"vdsms/internal/mpeg"
)

// Re-exported fleet errors; branch with errors.Is.
var (
	// ErrFleetFull reports an Attach rejected by admission control.
	ErrFleetFull = fleet.ErrFleetFull
	// ErrBackpressure reports a PushSegment rejected because the stream's
	// queue is full. The segment was decoded but NOT enqueued; retry,
	// thin, or drop at the producer.
	ErrBackpressure = fleet.ErrBackpressure
	// ErrSegmentTooLarge reports a PushSegment of more key frames than the
	// stream's whole queue (FleetConfig.QueueWindows): retrying cannot
	// succeed. Send shorter segments or configure deeper queues.
	ErrSegmentTooLarge = fleet.ErrBatchTooLarge
	// ErrDuplicateStream reports an Attach with an id already in use.
	ErrDuplicateStream = fleet.ErrDuplicateStream
)

// FleetConfig tunes the stream pool around the detection configuration.
type FleetConfig struct {
	// Workers is the number of pool workers streams multiplex over.
	// Defaults to GOMAXPROCS.
	Workers int
	// MaxStreams caps concurrently attached streams (admission control);
	// 0 means unlimited.
	MaxStreams int
	// QueueWindows bounds each stream's pending frames, in basic windows.
	// Defaults to 8.
	QueueWindows int
}

// A Fleet monitors many streams against one shared, versioned query plane.
// Query memory (sketches, query index) is O(queries)
// regardless of the stream count; per-stream state is candidate lists and
// a window buffer. Attach/Detach, query churn and segment pushes may all
// be called concurrently; subscription churn lands through the plane's
// copy-on-write swap without stalling any stream's ingest.
type Fleet struct {
	d    *Detector
	pool *fleet.Pool
	// fronts is the free list of the front ends PushSegment decodes on.
	fronts sync.Pool
}

// segmentFront is a front end with the cell buffer it decodes into.
type segmentFront struct {
	fe    frontEnd
	cells []uint64
}

// NewFleet builds a fleet with a fresh query plane.
func NewFleet(cfg Config, fc FleetConfig) (*Fleet, error) {
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	return d.NewFleet(fc)
}

// NewFleet builds a fleet sharing this detector's query plane: queries
// already subscribed (or subscribed later through either side) cover the
// detector's own stream and every fleet stream alike. Its streams share the
// detector's slow-window budget too: a window over it is counted and kept
// under the stream's id, but not passed to OnSlowWindow or logged.
func (d *Detector) NewFleet(fc FleetConfig) (*Fleet, error) {
	pool, err := fleet.NewWith(fleet.Config{
		Engine:      d.engine.Config(),
		Workers:     fc.Workers,
		MaxStreams:  fc.MaxStreams,
		QueueFrames: fc.QueueWindows * d.winKeyF,
	}, d.engine.Queries())
	if err != nil {
		return nil, err
	}
	pool.Observe(d.observer())
	f := &Fleet{d: d, pool: pool}
	f.fronts.New = func() any { return new(segmentFront) }
	return f, nil
}

// AddQuery subscribes a continuous query from an encoded MVC1 clip,
// fleet-wide: every attached stream sees it at its next window.
func (f *Fleet) AddQuery(id int, clip io.Reader) error {
	cells, err := f.d.pipeline.queryCells(id, clip, new(frontEnd))
	if err != nil {
		return err
	}
	return f.pool.AddQuery(id, cells)
}

// AddQueries subscribes a batch of MVC1 clips in one bulk index build and
// one plane version. As Detector.AddQueries, it works on every core:
// distinct clips may be read concurrently, one goroutine per clip, and on
// an error clips after the failing one may have been read.
func (f *Fleet) AddQueries(ids []int, clips []io.Reader) error {
	cellIDs, err := f.d.pipeline.batchCells(ids, clips)
	if err != nil {
		return err
	}
	return f.pool.AddQueries(ids, cellIDs)
}

// RemoveQuery unsubscribes a query fleet-wide.
func (f *Fleet) RemoveQuery(id int) error { return f.pool.RemoveQuery(id) }

// NumQueries returns the number of subscribed queries.
func (f *Fleet) NumQueries() int { return f.pool.Queries().Len() }

// PlaneBytes returns the shared query plane's memory footprint in bytes —
// the cost paid once instead of once per stream.
func (f *Fleet) PlaneBytes() int { return f.pool.PlaneBytes() }

// Attach admits a new stream. Errors: ErrFleetFull (admission limit),
// ErrDuplicateStream, or a closed fleet.
func (f *Fleet) Attach(id string) (*FleetStream, error) {
	s, err := f.pool.Attach(id)
	if err != nil {
		return nil, err
	}
	return &FleetStream{fl: f, s: s}, nil
}

// Stream returns the attached stream with the given id, or nil.
func (f *Fleet) Stream(id string) *FleetStream {
	s := f.pool.Stream(id)
	if s == nil {
		return nil
	}
	return &FleetStream{fl: f, s: s}
}

// StreamIDs returns the attached stream ids, sorted.
func (f *Fleet) StreamIDs() []string { return f.pool.StreamIDs() }

// Len returns the number of attached streams.
func (f *Fleet) Len() int { return f.pool.Len() }

// FleetWorkerStats is the passes and frames one worker has run, or, with
// ID -1, the goroutines that helped while they waited in Drain or Detach;
// see fleet.WorkerStats.
type FleetWorkerStats = fleet.WorkerStats

// WorkerStats returns one row per worker, ordered by id, then the helpers'
// row; together they count every frame the fleet has processed.
func (f *Fleet) WorkerStats() []FleetWorkerStats { return f.pool.WorkerStats() }

// Backlog returns the streams waiting for a free goroutine and the frames
// queued or in flight across the fleet.
func (f *Fleet) Backlog() (ready int, queuedFrames int64) { return f.pool.Backlog() }

// QueueDepthHW returns the deepest the pool-wide frame backlog has run
// since the fleet started — the high-watermark behind the
// vcd_fleet_queue_depth gauge.
func (f *Fleet) QueueDepthHW() int64 { return f.pool.QueueDepthHW() }

// Drain blocks until every stream queue is empty (producers must pause).
// The caller does not sleep through it: it runs queued windows beside the
// workers until none are left.
func (f *Fleet) Drain() { f.pool.Drain() }

// Close stops the pool's workers. Streams stay readable but stop
// processing and reject segments; call Drain first for a graceful stop.
func (f *Fleet) Close() { f.pool.Close() }

// A FleetStream is one monitored stream of a Fleet.
type FleetStream struct {
	fl *Fleet
	s  *fleet.Stream
}

// ID returns the stream id.
func (fs *FleetStream) ID() string { return fs.s.ID() }

// PushSegment decodes an encoded MVC1 segment (a chunk of the stream;
// consecutive calls concatenate) and enqueues its key-frame fingerprints.
// Decoding happens on the caller's goroutine, on a front end borrowed from
// the fleet's free list — producers parallelise the front-end while the
// pool runs the matching kernel. A full stream queue rejects the whole
// segment with ErrBackpressure: nothing is enqueued, so a retried segment
// cannot double-feed frames. A segment longer than the whole queue is
// rejected with ErrSegmentTooLarge, whatever the queue holds, and any
// segment with an error once the stream is detached or the fleet closed.
func (fs *FleetStream) PushSegment(segment io.Reader) error {
	pd, err := mpeg.NewPartialDecoder(segment)
	if err != nil {
		return err
	}
	// Validate before working: a mis-configured producer costs a header
	// read, not a decode.
	if err := fs.fl.d.cfg.checkKeyRate(pd.Header()); err != nil {
		return err
	}
	sf := fs.fl.fronts.Get().(*segmentFront)
	defer fs.fl.fronts.Put(sf)
	sf.fe.last = 0 // a segment's leading placeholders repeat no other segment's id
	cells, err := fs.fl.d.pipeline.cells(pd, &sf.fe, sf.cells[:0])
	if err != nil || len(cells) == 0 {
		return err
	}
	sf.cells = cells
	return fs.s.Push(cells) // Push copies cells
}

// Matches returns the matches reported so far, in stream time.
func (fs *FleetStream) Matches() []Match {
	raw := fs.s.Matches()
	out := make([]Match, len(raw))
	for i, m := range raw {
		out[i] = convertMatch(m, fs.fl.d.cfg.KeyFPS)
	}
	return out
}

// Stats returns the stream's engine counters.
func (fs *FleetStream) Stats() Stats { return fs.s.Stats() }

// Pending returns the stream's queued plus in-flight frame count.
func (fs *FleetStream) Pending() int { return fs.s.Pending() }

// Detach removes the stream from the fleet. With drain true, queued
// frames are processed and a final partial window flushed first; with
// drain false the queue is dropped. The stream stays readable either way.
func (fs *FleetStream) Detach(drain bool) { fs.s.Detach(drain) }

// convertMatch maps engine key-frame indices to stream time.
func convertMatch(m core.Match, keyFPS float64) Match {
	toDur := func(keyFrame int) time.Duration {
		return time.Duration(float64(keyFrame) / keyFPS * float64(time.Second))
	}
	return Match{
		QueryID:    m.QueryID,
		Start:      toDur(m.StartFrame),
		End:        toDur(m.EndFrame),
		DetectedAt: toDur(m.DetectedAt),
		Similarity: m.Similarity,
	}
}
