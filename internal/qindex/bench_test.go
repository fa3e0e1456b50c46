package qindex

import (
	"fmt"
	"math/rand"
	"testing"

	"vdsms/internal/minhash"
)

// The layer's own numbers at the benchmark's K and at the query counts of
// its workloads (20: monitor-video, 532: fleet-rounds and churn-durable,
// 2 068: monitor-manyquery) plus one well beyond them:
//
//	go test -run '^$' -bench 'IndexChurn|ProbeInto' -benchtime 20x ./internal/qindex
//
// Queries are 24 cells out of a vocabulary of eight cells per query, which
// keeps the runs of equal values in a row a few entries long at every size,
// as they are on the benchmark corpus; a window is five cells of one query.
var benchSizes = []int{20, 532, 2068, 20000}

const benchK = 800

func benchQueries(b *testing.B, fam *minhash.Family, m, extra int) (queries []Query, windows []minhash.Sketch) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	queries = make([]Query, m+extra)
	ids := make([]uint64, 24)
	for i := range queries {
		for j := range ids {
			ids[j] = uint64(rng.Intn(8 * m))
		}
		queries[i] = Query{ID: i + 1, Length: 24, Sketch: fam.SketchSet(ids)}
		if i%max(1, m/64) == 0 && len(windows) < 64 {
			windows = append(windows, fam.SketchSet(ids[:5]))
		}
	}
	return queries, windows
}

// BenchmarkIndexChurn is one subscription change as the query plane makes
// it: Clone + Remove of the oldest query, Clone + Add of a fresh one, the
// index size constant. B/op is the bytes a change copies, since every copy
// is made into a fresh allocation.
func BenchmarkIndexChurn(b *testing.B) {
	fam, _ := minhash.NewFamily(benchK, 1)
	for _, m := range benchSizes {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			const spare = 64
			queries, _ := benchQueries(b, fam, m, spare)
			x, err := Build(queries[:m])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// The window of m live queries slides round the m+spare.
				out, in := queries[n%len(queries)], queries[(n+m)%len(queries)]
				x = x.Clone()
				if err := x.Remove(out.ID); err != nil {
					b.Fatal(err)
				}
				x = x.Clone()
				if err := x.Add(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeInto is the engine's probe: one scratch, unmasked, over
// windows that are each related to a few queries.
func BenchmarkProbeInto(b *testing.B) {
	fam, _ := minhash.NewFamily(benchK, 1)
	for _, m := range benchSizes {
		b.Run(fmt.Sprint(m), func(b *testing.B) {
			queries, windows := benchQueries(b, fam, m, 0)
			x, err := Build(queries)
			if err != nil {
				b.Fatal(err)
			}
			ps := new(ProbeScratch)
			related := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				related += len(x.ProbeInto(ps, windows[n%len(windows)], 0.7, nil).Related)
			}
			b.ReportMetric(float64(related)/float64(b.N), "related/op")
		})
	}
}
