package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/stats"
)

// QueryScale measures the exact pre-filter tier (qindex.TrackCells) against
// the bare Hash-Query index as the subscribed query count m grows 10³ → 10⁵
// (10⁶ at -scale ≥ 4, where the index alone needs gigabytes). The workload
// is synthetic — cell-id streams, not the video pipeline, because encoding
// 10⁵ query videos is not the point — but structurally faithful: every
// query draws from its own content alphabet, the monitored stream is
// mostly unrelated background with a few true copies spliced in, exactly
// the regime the paper's "millions of users" north star implies, where
// almost every per-row probe finds nothing.
//
// Reported per level: subscription (bulk index build) time, stream
// wall-clock with the tier off and on, the resulting speedup, match
// equality (must always be true — the tier is output-neutral), the row
// rejection rate (each rejected row rejects every candidate query at that
// hash position before any index work), the false-positive rate (zero: the
// tier is exact), and the tier's memory footprint per registered query.
func QueryScale(l *Lab) (*stats.Table, error) {
	levels := []int{1_000, 10_000, 100_000}
	if l.opt.Scale >= 4 {
		levels = append(levels, 1_000_000)
	} else if l.opt.Scale < 1 {
		levels = levels[:2]
	}
	tb := stats.NewTable("Query scale: pre-filter tier vs bare HQ index (synthetic, K=128)",
		"queries", "subscribe", "probe off", "probe on", "speedup",
		"identical", "matches", "reject%", "fp%", "filter", "B/query")
	for _, m := range levels {
		row, err := QueryScaleRun(m, l.opt.Seed)
		if err != nil {
			return nil, err
		}
		tb.AddRow(row.Queries,
			time.Duration(row.SubscribeSec*float64(time.Second)).Round(time.Millisecond),
			time.Duration(row.BaseSec*float64(time.Second)).Round(time.Millisecond),
			time.Duration(row.PreSec*float64(time.Second)).Round(time.Millisecond),
			fmt.Sprintf("%.2fx", row.Speedup),
			row.Identical, row.Matches,
			fmt.Sprintf("%.1f", row.RejectPct),
			fmt.Sprintf("%.2f", row.FPPct),
			fmt.Sprintf("%.1fMB", float64(row.FilterBytes)/(1<<20)),
			fmt.Sprintf("%.1f", row.BytesPerQuery))
	}
	return tb, nil
}

// QueryScaleRow is one measured level of the query-scale sweep, in
// machine-readable form (the CI queryscale-smoke artifact).
type QueryScaleRow struct {
	Queries      int     `json:"queries"`
	SubscribeSec float64 `json:"subscribe_sec"`
	// BaseSec and PreSec are stream wall-clock with the tier off and on.
	BaseSec float64 `json:"stream_sec_prefilter_off"`
	PreSec  float64 `json:"stream_sec_prefilter_on"`
	Speedup float64 `json:"speedup"`
	// Identical is the output-neutrality check: the two runs' match lists
	// compared element-wise.
	Identical bool `json:"identical_matches"`
	Matches   int  `json:"matches"`
	// RejectPct is the percentage of per-row searches the tier rejected;
	// FPPct the percentage of admitted rows whose index search found
	// nothing, which an exact tier keeps at 0.
	RejectPct     float64 `json:"reject_pct"`
	FPPct         float64 `json:"fp_pct"`
	FilterBytes   int     `json:"filter_bytes"`
	BytesPerQuery float64 `json:"bytes_per_query"`
}

// QueryScaleRun measures one query-count level: m synthetic queries
// subscribed in one batch, a mostly-background stream with 8 true copies,
// streamed through two engines differing only in Config.PreFilter.
func QueryScaleRun(m int, seed int64) (QueryScaleRow, error) {
	if seed == 0 {
		seed = 20080407
	}
	rng := rand.New(rand.NewSource(seed))
	const (
		k           = 128 // keeps the 10⁵-query index in memory (K=800 would 6× it)
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

	run := func(pre bool) ([]core.Match, core.PreFilterStats, float64, float64, error) {
		cfg := core.Config{
			K: k, Seed: 11, Delta: 0.6, Lambda: 2, WindowFrames: w,
			Order: core.Sequential, Method: core.Bit, UseIndex: true, PreFilter: pre,
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return nil, core.PreFilterStats{}, 0, 0, err
		}
		sub := stats.Time(func() { err = eng.AddQueries(ids, queries) })
		if err != nil {
			return nil, core.PreFilterStats{}, 0, 0, err
		}
		elapsed := stats.Time(func() {
			eng.PushFrames(stream)
			eng.Flush()
		})
		return eng.Matches, eng.PreFilterStats(), sub.Seconds(), elapsed.Seconds(), nil
	}

	baseM, _, subSec, baseSec, err := run(false)
	if err != nil {
		return QueryScaleRow{}, err
	}
	preM, pf, _, preSec, err := run(true)
	if err != nil {
		return QueryScaleRow{}, err
	}

	identical := len(baseM) == len(preM)
	if identical {
		for i := range baseM {
			if baseM[i] != preM[i] {
				identical = false
				break
			}
		}
	}
	row := QueryScaleRow{
		Queries:      m,
		SubscribeSec: subSec,
		BaseSec:      baseSec,
		PreSec:       preSec,
		Identical:    identical,
		Matches:      len(preM),
		FilterBytes:  pf.Bytes,
	}
	if preSec > 0 {
		row.Speedup = baseSec / preSec
	}
	if pf.RowProbes > 0 {
		row.RejectPct = 100 * float64(pf.RowRejects) / float64(pf.RowProbes)
	}
	if admitted := pf.RowProbes - pf.RowRejects; admitted > 0 {
		row.FPPct = 100 * float64(pf.EmptySearches) / float64(admitted)
	}
	if m > 0 {
		row.BytesPerQuery = float64(pf.Bytes) / float64(m)
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
