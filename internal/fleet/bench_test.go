package fleet

import (
	"fmt"
	"testing"

	"vdsms/internal/core"
	"vdsms/internal/partition"
	"vdsms/internal/workload"
)

// BenchmarkPoolRound is the burst the benchmark's fleet-rounds workload
// hands the pool, without the decode: 64 streams push one window each of a
// workload.Build stream's cell ids (Table I engine, the 20 shorts
// subscribed), then the pusher drains. ns/op is one round; max/mean is the
// busiest runner's frames over the mean of the WorkerStats rows, 1 when the
// work is spread evenly. The ids are irregular so that no scheme that
// assigns streams by id gets an even split for free.
func BenchmarkPoolRound(b *testing.B) {
	const nStreams = 64
	wl := workload.Build(workload.Config{Seed: 24})
	pl, err := workload.NewPipeline(4, 5, partition.GridPyramid)
	if err != nil {
		b.Fatal(err)
	}
	feats, err := wl.StreamFeatures(pl.Extractor)
	if err != nil {
		b.Fatal(err)
	}
	cells := pl.CellIDs(feats)
	qfeats, err := wl.QueryFeatures(pl.Extractor)
	if err != nil {
		b.Fatal(err)
	}
	var qids []int
	var qcells [][]uint64
	for _, q := range wl.Queries {
		qids = append(qids, q.ID)
		qcells = append(qcells, pl.CellIDs(qfeats[q.ID]))
	}
	ecfg := core.Config{
		K: 800, Seed: 9, Delta: 0.7, Lambda: 2, WindowFrames: 10,
		Order: core.Sequential, Method: core.Bit, UseIndex: true,
	}
	windows := len(cells) / ecfg.WindowFrames
	window := func(i int) []uint64 {
		i %= windows
		return cells[i*ecfg.WindowFrames : (i+1)*ecfg.WindowFrames]
	}

	for _, workers := range []int{1, 3, 7} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p, err := New(Config{Engine: ecfg, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			if err := p.AddQueries(qids, qcells); err != nil {
				b.Fatal(err)
			}
			streams := make([]*Stream, nStreams)
			for i := range streams {
				// Knuth's multiplicative hash of i: distinct, and unordered.
				id := fmt.Sprintf("cam-%08x", uint32(i+1)*2654435761)
				if streams[i], err = p.Attach(id); err != nil {
					b.Fatal(err)
				}
			}
			round := func(n int) {
				for i, s := range streams {
					if err := s.Push(window(i*windows/nStreams + n)); err != nil {
						b.Fatal(err)
					}
				}
				p.Drain()
			}
			round(0) // grow queues and scratches
			before := p.WorkerStats()
			b.ResetTimer()
			for n := 1; n <= b.N; n++ {
				round(n)
			}
			b.StopTimer()
			var most, total int64
			after := p.WorkerStats()
			for i := range after {
				f := after[i].Frames - before[i].Frames
				most = max(most, f)
				total += f
			}
			b.ReportMetric(float64(most)*float64(len(after))/float64(total), "max/mean")
		})
	}
}
