package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/fleet"
	"vdsms/internal/stats"
)

// FleetScale measures the multi-tenant stream pool (internal/fleet) as the
// concurrent stream count grows 64 → 1024: N synthetic streams multiplexed
// over GOMAXPROCS workers against one shared query plane. The workload is
// synthetic cell-id streams (same generator as the query-scale sweep): m
// queries subscribed once, every 8th stream carrying one true copy, the
// rest pure background — the "many tenants, few hits" regime a fleet
// deployment lives in.
//
// Reported per level: ingest wall-clock and aggregate frame throughput,
// the shared plane's footprint, total heap growth attributable to the
// streams (engines + queues + pool bookkeeping) divided by N — the number
// that must stay flat for query memory to be O(queries) rather than
// O(queries × streams) — and an equivalence spot-check: sampled streams
// replayed through private isolated engines must produce identical match
// lists and counters.
func FleetScale(l *Lab) (*stats.Table, error) {
	levels := []int{64, 256, 1024}
	if l.opt.Scale < 1 {
		levels = levels[:2]
	}
	tb := stats.NewTable("Fleet scale: shared query plane, sharded stream pool (synthetic, K=128)",
		"streams", "queries", "ingest", "frames/s", "plane", "KB/stream",
		"identical", "matches")
	for _, n := range levels {
		row, err := FleetRun(n, l.opt.Seed)
		if err != nil {
			return nil, err
		}
		tb.AddRow(row.Streams, row.Queries,
			time.Duration(row.IngestSec*float64(time.Second)).Round(time.Millisecond),
			fmt.Sprintf("%.0f", row.FramesPerSec),
			fmt.Sprintf("%.1fMB", float64(row.PlaneBytes)/(1<<20)),
			fmt.Sprintf("%.1f", row.BytesPerStream/1024),
			row.Identical, row.Matches)
	}
	return tb, nil
}

// FleetRow is one measured level of the fleet sweep, in machine-readable
// form (the CI fleet-smoke artifact).
type FleetRow struct {
	Streams int `json:"streams"`
	Queries int `json:"queries"`
	// IngestSec is wall-clock from first push to drained, all producers
	// concurrent; Frames is the aggregate frame count across streams.
	IngestSec    float64 `json:"ingest_sec"`
	Frames       int     `json:"frames"`
	FramesPerSec float64 `json:"frames_per_sec"`
	// PlaneBytes is the shared query plane (sketches + signatures + HQ
	// index), paid once for the whole fleet; BytesPerStream is the heap
	// growth of attaching and feeding the N streams divided by N.
	PlaneBytes     int     `json:"plane_bytes"`
	BytesPerStream float64 `json:"bytes_per_stream"`
	// Identical reports the equivalence spot-check: sampled streams
	// replayed through private single-stream engines, match lists and
	// counter totals compared exactly.
	Identical bool `json:"identical_matches"`
	Matches   int  `json:"matches"`
}

// fleetStream builds stream i's cell-id feed: background content unique to
// the stream, with one true copy of a subscribed query spliced into every
// 8th stream (offset by the stream index so all queries get coverage).
func fleetStream(i, m, frames int, queries [][]uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	out := synthStream(rng, 1_000_000+i, frames)
	if i%8 == 0 {
		q := queries[(i/8)%m]
		cut := frames / 3
		spliced := make([]uint64, 0, len(out)+len(q))
		spliced = append(spliced, out[:cut]...)
		spliced = append(spliced, q...)
		spliced = append(spliced, out[cut:]...)
		return spliced
	}
	return out
}

// FleetRun measures one stream-count level: m queries subscribed once on a
// shared plane, n streams attached and fed concurrently, equivalence
// spot-checked against isolated engines.
func FleetRun(n int, seed int64) (FleetRow, error) {
	if seed == 0 {
		seed = 20080407
	}
	const (
		k            = 128
		w            = 10
		m            = 200 // subscribed queries
		queryFrames  = 40
		streamFrames = 400
	)
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, m)
	queries := make([][]uint64, m)
	for i := range queries {
		ids[i] = i + 1
		queries[i] = synthStream(rng, i+1, queryFrames)
	}
	feeds := make([][]uint64, n)
	total := 0
	for i := range feeds {
		feeds[i] = fleetStream(i, m, streamFrames, queries, seed)
		total += len(feeds[i])
	}

	cfg := core.Config{
		K: k, Seed: 11, Delta: 0.6, Lambda: 2, WindowFrames: w,
		Order: core.Sequential, Method: core.Bit, UseIndex: true,
	}
	pool, err := fleet.New(fleet.Config{Engine: cfg})
	if err != nil {
		return FleetRow{}, err
	}
	defer pool.Close()
	if err := pool.AddQueries(ids, queries); err != nil {
		return FleetRow{}, err
	}

	// Heap before any stream exists vs after ingest: the delta is engines,
	// queues and pool bookkeeping — everything that scales with N. The
	// plane and the feeds are allocated before the baseline so they cancel.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	streams := make([]*fleet.Stream, n)
	for i := range streams {
		s, err := pool.Attach(fmt.Sprintf("s%04d", i))
		if err != nil {
			return FleetRow{}, err
		}
		streams[i] = s
	}
	start := time.Now()
	var wg sync.WaitGroup
	pushErr := make(chan error, n)
	for i, s := range streams {
		wg.Add(1)
		go func(s *fleet.Stream, feed []uint64) {
			defer wg.Done()
			// Uneven batches, retrying on backpressure like a real producer.
			for off := 0; off < len(feed); {
				sz := 16 + (off/16)%17
				if off+sz > len(feed) {
					sz = len(feed) - off
				}
				if err := s.Push(feed[off : off+sz]); err != nil {
					if !errors.Is(err, fleet.ErrBackpressure) {
						pushErr <- err
						return
					}
					time.Sleep(200 * time.Microsecond)
					continue
				}
				off += sz
			}
		}(s, feeds[i])
	}
	wg.Wait()
	close(pushErr)
	if err := <-pushErr; err != nil {
		return FleetRow{}, err
	}
	pool.Drain()
	for _, s := range streams {
		s.Detach(true)
	}
	elapsed := time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if delta < 0 {
		delta = 0
	}
	perStream := delta / float64(n)

	matches := 0
	for _, s := range streams {
		matches += len(s.Matches())
	}

	// Equivalence spot-check: replay a sample of streams (the first, the
	// last, and two interior ones — both copy-carrying and background)
	// through isolated single-stream engines over a private query plane.
	identical := true
	for _, i := range []int{0, 1, n / 2, n - 1} {
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return FleetRow{}, err
		}
		if err := eng.AddQueries(ids, queries); err != nil {
			return FleetRow{}, err
		}
		eng.PushFrames(feeds[i])
		eng.Flush()
		got, want := streams[i].Matches(), eng.Matches
		if len(got) != len(want) {
			identical = false
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				identical = false
				break
			}
		}
		if streams[i].Stats() != eng.Stats() {
			identical = false
		}
	}

	row := FleetRow{
		Streams:        n,
		Queries:        m,
		IngestSec:      elapsed.Seconds(),
		Frames:         total,
		PlaneBytes:     pool.PlaneBytes(),
		BytesPerStream: perStream,
		Identical:      identical,
		Matches:        matches,
	}
	if elapsed > 0 {
		row.FramesPerSec = float64(total) / elapsed.Seconds()
	}
	return row, nil
}
