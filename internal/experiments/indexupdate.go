package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
	"vdsms/internal/stats"
)

// AblationIndexUpdate measures the online subscription maintenance of
// paper Section V.C.1 ("Addition of new queries and removal of old queries
// can be performed online"): the cost of adding/removing one query to a
// live query index versus rebuilding it from scratch, across index sizes,
// in time and in heap bytes allocated (the clock-free column).
func AblationIndexUpdate(l *Lab) (*stats.Table, error) {
	const k = 800
	fam, err := minhash.NewFamily(k, 1)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(l.opt.Seed))
	mkQuery := func(id int) qindex.Query {
		ids := make([]uint64, rng.Intn(30)+10)
		for i := range ids {
			ids[i] = uint64(rng.Intn(2000))
		}
		return qindex.Query{ID: id, Length: (rng.Intn(30) + 10) * 2, Sketch: fam.SketchSet(ids)}
	}

	tb := stats.NewTable("Ablation: online query index maintenance (K=800)",
		"m", "online add", "add B", "online remove", "remove B", "full rebuild", "rebuild B")
	for _, m := range []int{50, 100, 200} {
		queries := make([]qindex.Query, m)
		for i := range queries {
			queries[i] = mkQuery(i + 1)
		}
		idx, err := qindex.New(fam, queries)
		if err != nil {
			return nil, err
		}
		extra := mkQuery(m + 1)

		const reps = 20
		var add, remove, rebuild cost
		for r := 0; r < reps; r++ {
			for _, step := range []struct {
				c  *cost
				fn func() error
			}{
				{&add, func() error { return idx.Add(extra) }},
				{&remove, func() error { return idx.Remove(extra.ID) }},
				{&rebuild, func() error { _, err := qindex.New(fam, queries); return err }},
			} {
				if err := step.c.of(step.fn); err != nil {
					return nil, err
				}
			}
		}
		tb.AddRow(m, add.t/reps, add.bytes/reps, remove.t/reps, remove.bytes/reps,
			rebuild.t/reps, rebuild.bytes/reps)
	}
	return tb, nil
}

// cost sums the time and the heap bytes allocated of repeated calls.
type cost struct {
	t     time.Duration
	bytes uint64
}

func (c *cost) of(fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	c.t += stats.Time(func() { err = fn() })
	runtime.ReadMemStats(&after)
	c.bytes += after.TotalAlloc - before.TotalAlloc
	return err
}
