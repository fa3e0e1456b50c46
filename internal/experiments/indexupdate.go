package experiments

import (
	"math/rand"
	"time"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
	"vdsms/internal/stats"
)

// AblationIndexUpdate measures the online subscription maintenance of
// paper Section V.C.1 ("Addition of new queries and removal of old queries
// can be performed online"): the cost of adding/removing one query to a
// live query index versus rebuilding it from scratch, across index sizes.
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
		"m", "online add", "online remove", "full rebuild")
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
		var addT, removeT, rebuildT time.Duration
		for r := 0; r < reps; r++ {
			addT += stats.Time(func() {
				if err := idx.Add(extra); err != nil {
					panic(err)
				}
			})
			removeT += stats.Time(func() {
				if err := idx.Remove(extra.ID); err != nil {
					panic(err)
				}
			})
			rebuildT += stats.Time(func() {
				if _, err := qindex.New(fam, queries); err != nil {
					panic(err)
				}
			})
		}
		tb.AddRow(m, addT/reps, removeT/reps, rebuildT/reps)
	}
	return tb, nil
}
