package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"vdsms"
	"vdsms/internal/core"
	"vdsms/internal/fleet"
	"vdsms/internal/server"
	"vdsms/internal/telemetry"
)

// The parts of the traced replay beyond the single-stream segment walk: the
// pool in rounds (on the path of fleet-rounds, a probe elsewhere) and the
// probes of layers that no workload's unit crosses from outside.

// fleetStats is what the traced fleet rounds observed.
type fleetStats struct {
	pushes, rejected int
	passes, frames   int64
	skew             float64
	queueHW          int64
	bytesPerStream   float64
}

// fleetRounds attaches streams to a fresh pool over the plane and feeds
// them in rounds: the producer's front end and Stream.Push under a
// bench.round root, then the wait for the workers to drain. What the
// workers do meanwhile is inside the program and shows here only as that
// wait. Every fleetLoop rounds close a batch; the rounds stop at the
// first batch boundary past the deadline, or after maxRounds.
func (r *replay) fleetRounds(streams, maxRounds int, deadline time.Time) (fleetStats, error) {
	var fs fleetStats
	heapBefore := heapAlloc()
	pool, err := fleet.NewWith(fleet.Config{
		Engine:  r.cfg,
		Workers: max(1, runtime.GOMAXPROCS(0)-1),
	}, r.qs)
	if err != nil {
		return fs, err
	}
	defer pool.Close()
	ss := make([]*fleet.Stream, streams)
	for i := range ss {
		if ss[i], err = pool.Attach(fmt.Sprintf("s%02d", i)); err != nil {
			return fs, err
		}
	}
	// One untraced round from cell ids, so that what the heap gained is the
	// pool, its streams and their engines after a window each, not spans.
	for i, s := range ss {
		if err := s.Push(r.cells[fleetSegment(r.c, streams, i, 0)]); err != nil {
			return fs, err
		}
	}
	pool.Drain()
	fs.pushes = streams
	fs.bytesPerStream = (heapAlloc() - heapBefore) / float64(streams)
	from := len(r.tr.spans)
	for rd := 1; rd <= maxRounds; rd++ {
		pass := (rd - 1) / fleetLoop
		root := r.tr.begin(0, "bench.round", r.key(pass, -1, rd))
		for i, s := range ss {
			key := r.key(pass, i, rd)
			cells, err := r.frontEnd(root, key, r.c.segments[fleetSegment(r.c, streams, i, rd)])
			if err != nil {
				return fs, err
			}
			sp := r.tr.begin(root, "fleet.push", key)
			err = s.Push(cells)
			r.tr.end(sp)
			fs.pushes++
			if err != nil {
				fs.rejected++
			}
		}
		sp := r.tr.begin(root, "fleet.drain_wait", r.key(pass, -1, rd))
		pool.Drain()
		r.tr.end(sp)
		r.tr.end(root)
		if rd%fleetLoop == 0 || rd == maxRounds {
			r.endBatch(from)
			from = len(r.tr.spans)
			if time.Now().After(deadline) {
				break
			}
		}
	}
	ws := pool.WorkerStats()
	var maxFrames int64
	for _, w := range ws {
		fs.passes += w.Passes
		fs.frames += w.Frames
		maxFrames = max(maxFrames, w.Frames)
	}
	if fs.frames > 0 {
		fs.skew = float64(maxFrames) * float64(len(ws)) / float64(fs.frames)
	}
	fs.queueHW = pool.QueueDepthHW()
	return fs, nil
}

// heapAlloc is the live heap in bytes after a forced collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// durabilityProbe measures the WAL, the checkpoint and the churn op off the
// path of a workload that is not durable: a fresh engine takes the first
// probeWindows windows, each logged first, with probeChurns churn ops
// spread among them.
func (r *replay) durabilityProbe() error {
	eng, err := core.NewEngineWith(r.cfg, r.qs)
	if err != nil {
		return err
	}
	from := len(r.tr.spans)
	key := r.def.name + "/probe/durability"
	if err := r.checkpoint(0, key, eng); err != nil {
		return err
	}
	windows := min(probeWindows, len(r.cells))
	for w := 0; w < windows; w++ {
		r.walWindow(0, key, r.cells[w])
		eng.PushFrames(r.cells[w])
		if (w+1)%(windows/probeChurns) == 0 {
			shadows, err := r.churn(0, key, eng)
			if err != nil {
				return err
			}
			if err := shadows(); err != nil {
				return err
			}
		}
	}
	r.endBatch(from)
	return nil
}

// frontDoorProbe times the two fleet front doors on every segment of the
// stream: FleetStream.PushSegment called directly, and the same segment
// POSTed over one keep-alive connection to an in-process server. Neither
// depends on the query plane — the matching happens later on a worker — so
// both run against the true queries only, whatever the workload.
func (r *replay) frontDoorProbe() error {
	cfg := vdsms.DefaultConfig()
	fc := vdsms.FleetConfig{Workers: max(1, runtime.GOMAXPROCS(0)-1)}
	from := len(r.tr.spans)
	key := r.def.name + "/probe/frontdoor"

	fl, err := vdsms.NewFleet(cfg, fc)
	if err != nil {
		return err
	}
	defer fl.Close()
	if err := fl.AddQueries(subscription(r.c, 0)); err != nil {
		return err
	}
	fs, err := fl.Attach("probe")
	if err != nil {
		return err
	}
	for _, seg := range r.c.segments {
		sp := r.tr.begin(0, "fleet.push_segment", key)
		err := fs.PushSegment(bytes.NewReader(seg))
		r.tr.end(sp)
		if errors.Is(err, vdsms.ErrBackpressure) {
			// The worker fell behind the producer; the refused segment is
			// pushed again once it has caught up, outside any span.
			fl.Drain()
			err = fs.PushSegment(bytes.NewReader(seg))
		}
		if err != nil {
			return err
		}
	}
	fl.Drain()

	srv, err := server.NewWithOptions(cfg, server.Options{Fleet: fc})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do := func(method, path string, body []byte) (int, error) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		return resp.StatusCode, err
	}
	expect := func(want int, method, path string, body []byte) error {
		got, err := do(method, path, body)
		if err == nil && got != want {
			err = fmt.Errorf("%s %s: status %d, want %d", method, path, got, want)
		}
		return err
	}
	for i, q := range r.c.shorts {
		if err := expect(http.StatusOK, http.MethodPut, fmt.Sprintf("/queries/%d", i+1), q); err != nil {
			return err
		}
	}
	if err := expect(http.StatusCreated, http.MethodPost, "/streams", []byte(`{"id":"probe"}`)); err != nil {
		return err
	}
	for _, seg := range r.c.segments {
		sp := r.tr.begin(0, "server.post_frames", key)
		status, err := do(http.MethodPost, "/streams/probe/frames", seg)
		r.tr.end(sp)
		for err == nil && status == http.StatusTooManyRequests {
			time.Sleep(2 * time.Millisecond) // as above; the server has no drain call
			status, err = do(http.MethodPost, "/streams/probe/frames", seg)
		}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("POST /streams/probe/frames: status %d", status)
		}
		if err != nil {
			return err
		}
	}
	if err := expect(http.StatusOK, http.MethodDelete, "/streams/probe", nil); err != nil {
		return err
	}
	r.endBatch(from)
	return nil
}

// kernelProbe pushes the stream's windows, already cell ids, through fresh
// engines with telemetry on and off in turn, and returns the ratio of the
// faster pass of each; the first pass also counts the kernel's allocations.
func (r *replay) kernelProbe() (ratio, allocs, allocBytes float64, err error) {
	prev := telemetry.Enabled()
	defer telemetry.SetEnabled(prev)
	best := map[bool]time.Duration{}
	for i := 0; i < 2; i++ {
		for _, on := range []bool{true, false} {
			telemetry.SetEnabled(on)
			eng, err := core.NewEngineWith(r.cfg, r.qs)
			if err != nil {
				return 0, 0, 0, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for _, cells := range r.cells {
				eng.PushFrames(cells)
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&after)
			if allocs == 0 {
				w := float64(len(r.cells))
				allocs = float64(after.Mallocs-before.Mallocs) / w
				allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / w
			}
			if b, ok := best[on]; !ok || d < b {
				best[on] = d
			}
		}
	}
	return float64(best[true]) / float64(best[false]), allocs, allocBytes, nil
}
