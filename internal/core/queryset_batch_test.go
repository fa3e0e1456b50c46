package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAddBatchMatchesIncremental: batch subscription must be functionally
// indistinguishable from per-query AddQuery — same matches on the same
// stream — for indexed and unindexed engines.
func TestAddBatchMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	queries := make([][]uint64, 9)
	ids := make([]int, len(queries))
	for i := range queries {
		queries[i] = idStream(rng, i+1, 30+5*i)
		ids[i] = i + 1
	}
	var stream []uint64
	stream = append(stream, idStream(rng, 40, 70)...)
	stream = append(stream, queries[4]...)
	stream = append(stream, idStream(rng, 41, 50)...)
	stream = append(stream, queries[1]...)
	stream = append(stream, idStream(rng, 42, 50)...)

	for _, v := range []variant{
		{"bit-seq-index", Bit, Sequential, true},
		{"bit-seq-noindex", Bit, Sequential, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			run := func(batch bool) []Match {
				e := newTestEngine(t, v, 128, 0.5, 10)
				if batch {
					if err := e.AddQueries(ids, queries); err != nil {
						t.Fatal(err)
					}
				} else {
					for i, q := range queries {
						if err := e.AddQuery(ids[i], q); err != nil {
							t.Fatal(err)
						}
					}
				}
				e.PushFrames(stream)
				e.Flush()
				return e.Matches
			}
			inc, bat := run(false), run(true)
			if len(inc) == 0 {
				t.Fatal("workload produced no matches")
			}
			if !reflect.DeepEqual(inc, bat) {
				t.Errorf("batch subscription diverges\nincremental: %+v\nbatch:       %+v", inc, bat)
			}
		})
	}
}

// TestAddBatchErrors: invalid batches must be rejected atomically — no
// partial subscription.
func TestAddBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q1 := idStream(rng, 1, 30)
	q2 := idStream(rng, 2, 30)
	e := newTestEngine(t, variants[0], 64, 0.5, 10)
	if err := e.AddQuery(1, q1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		ids     []int
		queries [][]uint64
	}{
		{"length mismatch", []int{2, 3}, [][]uint64{q2}},
		{"duplicate within batch", []int{2, 2}, [][]uint64{q2, q2}},
		{"duplicate with existing", []int{1}, [][]uint64{q2}},
		{"empty query", []int{2, 3}, [][]uint64{q2, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := e.AddQueries(tc.ids, tc.queries); err == nil {
				t.Fatal("invalid batch accepted")
			}
			if got := e.NumQueries(); got != 1 {
				t.Fatalf("failed batch left %d queries subscribed, want 1", got)
			}
		})
	}
	// A valid batch still lands after the failures.
	if err := e.AddQueries([]int{2}, [][]uint64{q2}); err != nil {
		t.Fatal(err)
	}
	if e.NumQueries() != 2 {
		t.Fatalf("NumQueries = %d, want 2", e.NumQueries())
	}
}
