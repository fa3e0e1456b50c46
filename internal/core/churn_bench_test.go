package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// benchQueries returns n query ids 1…n and their key frames' cell ids, with
// content shared the way the benchmark corpus's spliced queries share it:
// 24 frames over a vocabulary of 1 500 cells, so a few cells win most
// queries' rows and their posting lists are long.
func benchQueries(n int, seed int64) ([]int, [][]uint64) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, n)
	cells := make([][]uint64, n)
	for i := range cells {
		ids[i] = i + 1
		cells[i] = make([]uint64, 24)
		for j := range cells[i] {
			if j%3 == 0 {
				cells[i][j] = uint64(rng.Intn(1500))
			} else {
				cells[i][j] = cells[i][j-1]
			}
		}
	}
	return ids, cells
}

// BenchmarkQuerySetChurn is one subscription change — Remove of the oldest
// query, Add of a fresh one, two plane versions — on a QuerySet at K=800
// and the churn ladder's query counts: fleet-rounds/churn-durable (532),
// monitor-manyquery (2 068) and ten times that (20 000, ≈130 MB of
// sketches). Run with -benchtime 64x to amortise the churn over 64 changes:
//
//	go test -run '^$' -bench QuerySetChurn -benchtime 64x -benchmem ./internal/core
func BenchmarkQuerySetChurn(b *testing.B) {
	for _, m := range []int{532, 2068, 20000} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			const spare = 64
			ids, cells := benchQueries(m+spare, int64(m))
			qs, err := NewQuerySet(800, 1, true)
			if err != nil {
				b.Fatal(err)
			}
			if err := qs.AddBatch(ids[:m], cells[:m]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// The window of m live queries slides round the m+spare.
				out, in := n%len(ids), (n+m)%len(ids)
				if err := qs.Remove(ids[out]); err != nil {
					b.Fatal(err)
				}
				if err := qs.Add(ids[in], cells[in]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreQueries rebuilds the 2 068-query plane of
// monitor-manyquery (K=800) two ways: RestoreEngine from an exported
// engine state and LoadQuerySet from the set's saved bytes. Both derive
// each sketch again from the query's cells, on every core; -cpu 1,2 shows
// what the second core gives:
//
//	go test -run '^$' -bench RestoreQueries -benchmem -cpu 1,2 ./internal/core
func BenchmarkRestoreQueries(b *testing.B) {
	cfg := Config{K: 800, Seed: 1, Delta: 0.6, Lambda: 2, WindowFrames: 10,
		Order: Sequential, Method: Bit, UseIndex: true}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ids, cells := benchQueries(2068, 2068)
	if err := e.AddQueries(ids, cells); err != nil {
		b.Fatal(err)
	}
	st := e.ExportState()
	var saved bytes.Buffer
	if err := e.Queries().Save(&saved); err != nil {
		b.Fatal(err)
	}
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := RestoreEngine(cfg, st); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := LoadQuerySet(cfg, bytes.NewReader(saved.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
