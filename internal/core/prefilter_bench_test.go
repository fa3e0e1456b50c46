package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkPreFilterChurn is one subscription change — Remove of the
// oldest query, Add of a fresh one, two plane versions — on a QuerySet with
// the pre-filter on, at the query counts of fleet-rounds/churn-durable
// (532) and monitor-manyquery (2 068), K=800. Queries share content the way
// the benchmark corpus's spliced queries do: 24 frames over a vocabulary of
// 1 500 cells, so a few cells win most queries' rows. Run with -benchtime
// 64x to amortise the churn over 64 changes:
//
//	go test -run '^$' -bench PreFilterChurn -benchtime 64x ./internal/core
func BenchmarkPreFilterChurn(b *testing.B) {
	for _, m := range []int{532, 2068} {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(m)))
			const spare = 64
			ids := make([]int, m+spare)
			cells := make([][]uint64, m+spare)
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
			qs, err := NewQuerySet(800, 1, true)
			if err != nil {
				b.Fatal(err)
			}
			qs.EnablePreFilter()
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
