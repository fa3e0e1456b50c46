package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkSequentialBit is the Sequential-order, Bit-method kernel — probe,
// candidate walk, fresh candidate and match emission — one basic window per
// operation, at the query counts of fleet-rounds/churn-durable (532) and
// monitor-manyquery (2 068), K=800, δ=0.7, w=10. It mimics the benchmark
// corpus: a library of shot-like cell ids, a stream that is its first
// half, and queries spliced from three runs of 8 consecutive library
// frames, so windows keep relating to the same queries and candidates
// track many of them for several windows. Every 400 frames the stream
// carries a copy of a query, so candidates also report. It reports
// ns/window, allocs/window and the queries tracked per window (the walk's
// length, summed over the candidate list):
//
//	go test -run '^$' -bench SequentialBit -benchtime 2000x ./internal/core
func BenchmarkSequentialBit(b *testing.B) {
	for _, m := range []int{532, 2068} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(m)))
			library := make([]uint64, 8000)
			cur := uint64(rng.Intn(1500))
			for i := range library {
				if rng.Float64() < 0.3 {
					cur = uint64(rng.Intn(1500))
				}
				library[i] = cur
			}
			ids := make([]int, m)
			cells := make([][]uint64, m)
			third := len(library) / 3
			for i := range cells {
				ids[i] = i + 1
				for s := 0; s < 3; s++ {
					off := s*third + rng.Intn(third-8)
					cells[i] = append(cells[i], library[off:off+8]...)
				}
			}
			stream := append([]uint64(nil), library[:4000]...)
			for at := 200; at+24 <= len(stream); at += 400 {
				copy(stream[at:], cells[rng.Intn(m)])
			}
			cfg := Config{
				K: 800, Seed: 1, Delta: 0.7, Lambda: 2, WindowFrames: 10,
				Order: Sequential, Method: Bit, UseIndex: true,
			}
			e, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.AddQueries(ids, cells); err != nil {
				b.Fatal(err)
			}
			// One pass over the stream first, so the timed windows run on a
			// candidate list in its steady state.
			e.PushFrames(stream)
			if e.Stats().Matches == 0 {
				b.Fatal("the stream's copies produced no match; the benchmark would time an idle kernel")
			}
			windows := len(stream) / cfg.WindowFrames
			before := e.Stats()
			var mem0, mem1 runtime.MemStats
			runtime.ReadMemStats(&mem0)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at := (n % windows) * cfg.WindowFrames
				e.PushFrames(stream[at : at+cfg.WindowFrames])
			}
			b.StopTimer()
			runtime.ReadMemStats(&mem1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
			b.ReportMetric(float64(mem1.Mallocs-mem0.Mallocs)/float64(b.N), "allocs/window")
			b.ReportMetric(float64(e.Stats().SignatureSum-before.SignatureSum)/float64(b.N), "tracked/window")
		})
	}
}
