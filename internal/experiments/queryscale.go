package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/stats"
)

// QueryScale measures the query index (internal/qindex) against the
// index-free scan as the subscribed query count m grows 10³ → 10⁵ (10⁶ at
// -scale ≥ 4, where the scan takes minutes). The workload is synthetic —
// cell-id streams, not the video pipeline, because encoding 10⁵ query
// videos is not the point — but structurally faithful: every query draws
// from its own content alphabet, the monitored stream is mostly unrelated
// background with a few true copies spliced in, exactly the regime the
// paper's "millions of users" north star implies, where almost no query is
// related to a window.
//
// Reported per level: subscription time, per-window time with the index
// and with the scan, the resulting speedup, match equality (must always be
// true — the index is exact), the index's work per window (value
// comparisons) and its memory, in all and per registered query.
func QueryScale(l *Lab) (*stats.Table, error) {
	levels := []int{1_000, 10_000, 100_000}
	if l.opt.Scale >= 4 {
		levels = append(levels, 1_000_000)
	} else if l.opt.Scale < 1 {
		levels = levels[:2]
	}
	tb := stats.NewTable("Query scale: query index vs scan (synthetic, K=128)",
		"queries", "subscribe", "index/window", "scan/window", "speedup",
		"identical", "matches", "comparisons/window", "index", "B/query")
	for _, m := range levels {
		row, err := QueryScaleRun(m, l.opt.Seed)
		if err != nil {
			return nil, err
		}
		tb.AddRow(row.Queries,
			time.Duration(row.SubscribeSec*float64(time.Second)).Round(time.Millisecond),
			fmt.Sprintf("%.1fµs", row.IndexUS),
			fmt.Sprintf("%.1fµs", row.ScanUS),
			fmt.Sprintf("%.1fx", row.Speedup),
			row.Identical, row.Matches,
			fmt.Sprintf("%.1f", row.ComparisonsPerWindow),
			fmt.Sprintf("%.1fMB", float64(row.IndexBytes)/(1<<20)),
			fmt.Sprintf("%.1f", row.BytesPerQuery))
	}
	return tb, nil
}

// QueryScaleRow is one measured level of the query-scale sweep, in
// machine-readable form (the CI queryscale-smoke artifact).
type QueryScaleRow struct {
	Queries      int     `json:"queries"`
	SubscribeSec float64 `json:"subscribe_sec"`
	// IndexUS and ScanUS are stream wall-clock per basic window with the
	// query index and with the scan.
	IndexUS float64 `json:"index_us_per_window"`
	ScanUS  float64 `json:"scan_us_per_window"`
	Speedup float64 `json:"speedup"`
	// Identical is the exactness check: the two runs' match lists compared
	// element-wise.
	Identical bool `json:"identical_matches"`
	Matches   int  `json:"matches"`
	// ComparisonsPerWindow is the index's work (Stats.ProbeComparisons per
	// window); IndexBytes its memory beside the sketches.
	ComparisonsPerWindow float64 `json:"comparisons_per_window"`
	IndexBytes           int     `json:"index_bytes"`
	BytesPerQuery        float64 `json:"bytes_per_query"`
}

// QueryScaleRun measures one query-count level: m synthetic queries
// subscribed in one batch, a mostly-background stream with 8 true copies,
// streamed through two engines differing only in Config.UseIndex.
func QueryScaleRun(m int, seed int64) (QueryScaleRow, error) {
	if seed == 0 {
		seed = 20080407
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		k           = 128 // keeps the 10⁵-query plane small (K=800 would 6× its sketches)
		w           = 10
		queryFrames = 40
		copies      = 8
	)
	ids := make([]int, m)
	queries := make([][]uint64, m)
	for i := range queries {
		ids[i] = i + 1
		queries[i] = synthStream(rng, i+1, queryFrames)
	}
	// Stream: background drawn from content alphabets disjoint from every
	// query, with `copies` true inserts of distinct queries spliced in.
	var stream []uint64
	for c := 0; c < copies; c++ {
		stream = append(stream, synthStream(rng, m+10+c, 200)...)
		stream = append(stream, queries[(c*max(m/copies, 1))%m]...)
	}
	stream = append(stream, synthStream(rng, m+10+copies, 200)...)

	run := func(useIndex bool) (*core.Engine, float64, float64, error) {
		eng, err := core.NewEngine(core.Config{
			K: k, Seed: 11, Delta: 0.6, Lambda: 2, WindowFrames: w,
			Order: core.Sequential, Method: core.Bit, UseIndex: useIndex,
		})
		if err != nil {
			return nil, 0, 0, err
		}
		sub := stats.Time(func() { err = eng.AddQueries(ids, queries) })
		if err != nil {
			return nil, 0, 0, err
		}
		elapsed := stats.Time(func() {
			eng.PushFrames(stream)
			eng.Flush()
		})
		return eng, sub.Seconds(), elapsed.Seconds(), nil
	}

	idx, subSec, idxSec, err := run(true)
	if err != nil {
		return QueryScaleRow{}, err
	}
	scan, _, scanSec, err := run(false)
	if err != nil {
		return QueryScaleRow{}, err
	}

	identical := len(idx.Matches) == len(scan.Matches)
	if identical {
		for i := range idx.Matches {
			if idx.Matches[i] != scan.Matches[i] {
				identical = false
				break
			}
		}
	}
	st := idx.Stats()
	windows := float64(st.Windows)
	row := QueryScaleRow{
		Queries:              m,
		SubscribeSec:         subSec,
		IndexUS:              idxSec * 1e6 / windows,
		ScanUS:               scanSec * 1e6 / windows,
		Identical:            identical,
		Matches:              len(idx.Matches),
		ComparisonsPerWindow: float64(st.ProbeComparisons) / windows,
		IndexBytes:           idx.Queries().IndexBytes(),
	}
	if idxSec > 0 {
		row.Speedup = scanSec / idxSec
	}
	if m > 0 {
		row.BytesPerQuery = float64(row.IndexBytes) / float64(m)
	}
	return row, nil
}

// synthStream generates a cell-id stream for one content: ids drawn from a
// content-disjoint alphabet with shot-like persistence (the experiments'
// analogue of the core tests' idStream, sized for 10⁶ contents).
func synthStream(rng *rand.Rand, content, frames int) []uint64 {
	base := uint64(content) * 1_000_000
	out := make([]uint64, frames)
	cur := base + uint64(rng.Intn(50))
	for i := range out {
		if rng.Float64() < 0.3 {
			cur = base + uint64(rng.Intn(50))
		}
		out[i] = cur
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
