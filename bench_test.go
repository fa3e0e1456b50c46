package vdsms

// Benchmarks, one per table/figure of the paper's evaluation plus the
// ablations called out in DESIGN.md. Each benchmark times the measured
// operation of its experiment at a fixed, representative parameter point;
// the full parameter sweeps (the actual rows/series of the paper) are
// regenerated by `go run ./cmd/vcdbench all`, which these benchmarks keep
// honest by exercising the same code paths under the Go benchmark harness.

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"vdsms/internal/baseline"
	"vdsms/internal/core"
	"vdsms/internal/feature"
	"vdsms/internal/minhash"
	"vdsms/internal/partition"
	"vdsms/internal/telemetry"
	"vdsms/internal/workload"
)

// benchLab lazily builds the benchmark workloads (small scale so `go test
// -bench .` stays fast) and the derived cell-id/feature views.
type benchLab struct {
	once sync.Once
	vs1  *benchView
	vs2  *benchView
}

type benchView struct {
	streamIDs   []uint64
	queryIDs    map[int][]uint64
	streamFeats [][]float64
	queryFeats  map[int][][]float64
	wFrames     int
}

var lab benchLab

func buildView(b *testing.B, edited bool) *benchView {
	b.Helper()
	wl := workload.Build(workload.Config{
		NumShorts: 8, ShortMinSec: 15, ShortMaxSec: 30,
		GapMinSec: 8, GapMaxSec: 15,
		KeyFPS: 2, W: 96, H: 80, Quality: 78, Seed: 77, Edited: edited,
	})
	ex, err := feature.NewExtractor(feature.Config{D: 5})
	if err != nil {
		b.Fatal(err)
	}
	pt, err := partition.New(4, 5, partition.GridPyramid)
	if err != nil {
		b.Fatal(err)
	}
	sf, err := wl.StreamFeatures(ex)
	if err != nil {
		b.Fatal(err)
	}
	qf, err := wl.QueryFeatures(ex)
	if err != nil {
		b.Fatal(err)
	}
	v := &benchView{
		streamFeats: sf,
		queryFeats:  qf,
		queryIDs:    make(map[int][]uint64, len(qf)),
		wFrames:     wl.Cfg.KeyWindowFrames(5),
	}
	toIDs := func(fs [][]float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = pt.Cell(f)
		}
		return out
	}
	v.streamIDs = toIDs(sf)
	for qid, fs := range qf {
		v.queryIDs[qid] = toIDs(fs)
	}
	return v
}

func views(b *testing.B) (*benchView, *benchView) {
	b.Helper()
	lab.once.Do(func() {
		lab.vs1 = buildView(b, false)
		lab.vs2 = buildView(b, true)
	})
	return lab.vs1, lab.vs2
}

// runEngineOnce streams the view through a freshly configured engine.
func runEngineOnce(b *testing.B, v *benchView, cfg core.Config, m int) core.Stats {
	b.Helper()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	added := 0
	for qid := 1; qid <= len(v.queryIDs); qid++ {
		ids, ok := v.queryIDs[qid]
		if !ok {
			continue
		}
		if m > 0 && added >= m {
			break
		}
		if err := eng.AddQuery(qid, ids); err != nil {
			b.Fatal(err)
		}
		added++
	}
	for _, id := range v.streamIDs {
		eng.PushFrame(id)
	}
	eng.Flush()
	return eng.Stats()
}

func engCfg(k int, delta float64, wFrames int, method core.Method, order core.Order, index bool) core.Config {
	return core.Config{
		K: k, Seed: 1, Delta: delta, Lambda: 2, WindowFrames: wFrames,
		Method: method, Order: order, UseIndex: index,
	}
}

// BenchmarkTable2 measures the membership-test retrieval (exact Jaccard, no
// min-hash) at the default u=4, d=5 — the operation behind every Table II
// cell.
func BenchmarkTable2(b *testing.B) {
	_, vs2 := views(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range vs2.queryIDs {
			partition.Jaccard(q, vs2.streamIDs[:400])
		}
	}
}

// BenchmarkFig6 times one full stream pass per method/order at the default
// K=800 — the quantity on the Figure 6 y-axis.
func BenchmarkFig6(b *testing.B) {
	vs1, _ := views(b)
	for _, sub := range []struct {
		name   string
		method core.Method
		order  core.Order
	}{
		{"sketch-seq", core.Sketch, core.Sequential},
		{"sketch-geo", core.Sketch, core.Geometric},
		{"bit-seq", core.Bit, core.Sequential},
		{"bit-geo", core.Bit, core.Geometric},
	} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := engCfg(800, 0.7, vs1.wFrames, sub.method, sub.order, true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runEngineOnce(b, vs1, cfg, 0)
			}
		})
	}
}

// BenchmarkFig7 and BenchmarkFig8 time the accuracy-measurement pass on VS2
// (precision and recall come from the same run; K=800, δ=0.7).
func BenchmarkFig7(b *testing.B) { benchAccuracyPass(b) }

// BenchmarkFig8 — see BenchmarkFig7.
func BenchmarkFig8(b *testing.B) { benchAccuracyPass(b) }

func benchAccuracyPass(b *testing.B) {
	_, vs2 := views(b)
	cfg := engCfg(800, 0.7, vs2.wFrames, core.Bit, core.Sequential, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runEngineOnce(b, vs2, cfg, 0)
	}
}

// BenchmarkFig9 times the per-window probing with and without the query
// index at the benchmark's full query count — Figure 9's contrast.
func BenchmarkFig9(b *testing.B) {
	vs1, _ := views(b)
	for _, sub := range []struct {
		name  string
		index bool
	}{{"index", true}, {"noindex", false}} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := engCfg(800, 0.7, vs1.wFrames, core.Bit, core.Sequential, sub.index)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runEngineOnce(b, vs1, cfg, 0)
			}
		})
	}
}

// BenchmarkFig10a reports the Figure 10(a) memory metric (average live bit
// signatures) as a benchmark metric while timing the δ=0.7 run.
func BenchmarkFig10a(b *testing.B) {
	_, vs2 := views(b)
	cfg := engCfg(800, 0.7, vs2.wFrames, core.Bit, core.Sequential, true)
	b.ReportAllocs()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = runEngineOnce(b, vs2, cfg, 0)
	}
	b.ReportMetric(st.AvgSignatures(), "signatures")
}

// BenchmarkFig10b is the window-size point of the memory experiment
// (w = 10 s instead of 5 s).
func BenchmarkFig10b(b *testing.B) {
	_, vs2 := views(b)
	cfg := engCfg(800, 0.7, vs2.wFrames*2, core.Bit, core.Sequential, true)
	b.ReportAllocs()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		st = runEngineOnce(b, vs2, cfg, 0)
	}
	b.ReportMetric(st.AvgSignatures(), "signatures")
}

// BenchmarkFig11 times the w-sweep's costliest point (w = 5 s) on VS2.
func BenchmarkFig11(b *testing.B) {
	_, vs2 := views(b)
	cfg := engCfg(800, 0.7, vs2.wFrames, core.Bit, core.Sequential, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runEngineOnce(b, vs2, cfg, 0)
	}
}

// BenchmarkFig12 compares the three systems of Figure 12 at w = 5 s: the
// proposed Bit method on key frames vs the frame-rate baselines.
func BenchmarkFig12(b *testing.B) {
	_, vs2 := views(b)
	b.Run("bit", func(b *testing.B) {
		cfg := engCfg(800, 0.7, vs2.wFrames, core.Bit, core.Sequential, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runEngineOnce(b, vs2, cfg, 0)
		}
	})
	runBaselineOnce := func(b *testing.B, kind baseline.Kind, band int) {
		b.Helper()
		m, err := baseline.New(baseline.Config{
			Kind: kind, Threshold: 0.2, Gap: vs2.wFrames, Band: band,
		})
		if err != nil {
			b.Fatal(err)
		}
		for qid, f := range vs2.queryFeats {
			if err := m.AddQuery(qid, f); err != nil {
				b.Fatal(err)
			}
		}
		for _, f := range vs2.streamFeats {
			m.Push(f)
		}
	}
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runBaselineOnce(b, baseline.Seq, 0)
		}
	})
	b.Run("warp-r6", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runBaselineOnce(b, baseline.Warp, 6)
		}
	})
}

// BenchmarkFig13 times the δ-sweep's default point (the same pass Figure 13
// scores).
func BenchmarkFig13(b *testing.B) { benchAccuracyPass(b) }

// BenchmarkFig14 times the Seq baseline evaluation behind Figure 14.
func BenchmarkFig14(b *testing.B) {
	_, vs2 := views(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := baseline.New(baseline.Config{Kind: baseline.Seq, Threshold: 0.8, Gap: vs2.wFrames})
		if err != nil {
			b.Fatal(err)
		}
		for qid, f := range vs2.queryFeats {
			m.AddQuery(qid, f)
		}
		for _, f := range vs2.streamFeats {
			m.Push(f)
		}
	}
}

// BenchmarkFig15 times the Warp baseline evaluation behind Figure 15
// (band r = 6).
func BenchmarkFig15(b *testing.B) {
	_, vs2 := views(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := baseline.New(baseline.Config{Kind: baseline.Warp, Threshold: 0.8, Gap: vs2.wFrames, Band: 6})
		if err != nil {
			b.Fatal(err)
		}
		for qid, f := range vs2.queryFeats {
			m.AddQuery(qid, f)
		}
		for _, f := range vs2.streamFeats {
			m.Push(f)
		}
	}
}

// BenchmarkAblationPartition compares cell-id computation across the three
// partitioning schemes of Section III.A.
func BenchmarkAblationPartition(b *testing.B) {
	_, vs2 := views(b)
	for _, scheme := range []partition.Scheme{partition.Grid, partition.Pyramid, partition.GridPyramid} {
		b.Run(scheme.String(), func(b *testing.B) {
			pt, err := partition.New(4, 5, scheme)
			if err != nil {
				b.Fatal(err)
			}
			scratch := make([]float64, 5)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, f := range vs2.streamFeats {
					pt.CellInto(f, scratch)
				}
			}
		})
	}
}

// BenchmarkAblationPrune quantifies the Lemma 2 prune's CPU effect
// (Section V.B).
func BenchmarkAblationPrune(b *testing.B) {
	_, vs2 := views(b)
	for _, sub := range []struct {
		name    string
		disable bool
	}{{"prune-on", false}, {"prune-off", true}} {
		b.Run(sub.name, func(b *testing.B) {
			cfg := engCfg(800, 0.7, vs2.wFrames, core.Bit, core.Sequential, true)
			cfg.DisablePrune = sub.disable
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runEngineOnce(b, vs2, cfg, 0)
			}
		})
	}
}

// BenchmarkPipelineFrontEnd times the per-key-frame fingerprint path:
// min-hash sketching of a basic window (the per-window dominant cost shared
// by every configuration).
func BenchmarkPipelineFrontEnd(b *testing.B) {
	vs1, _ := views(b)
	fam, err := minhash.NewFamily(800, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := vs1.streamIDs[:vs1.wFrames]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.SketchSet(w)
	}
}

// BenchmarkDetectorThroughput measures end-to-end key-frame throughput of
// the default configuration (pipeline + engine, excluding video decode),
// reported as frames per second of wall time.
func BenchmarkDetectorThroughput(b *testing.B) {
	vs1, _ := views(b)
	cfg := engCfg(800, 0.7, vs1.wFrames, core.Bit, core.Sequential, true)
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for qid, ids := range vs1.queryIDs {
		if err := eng.AddQuery(qid, ids); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.PushFrame(vs1.streamIDs[i%len(vs1.streamIDs)])
	}
	b.StopTimer()
	fps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(fps, "keyframes/s")
	// At 2 key frames per second of stream time, fps/2 concurrent streams
	// could be monitored by one core.
	b.ReportMetric(fps/2, "realtime-streams")
}

// BenchmarkDurableChurn is one subscription change on a durable detector of
// the churn-durable workload's shape (bench/README.md): 532 queries at the
// default K, the oldest leaves and a fresh clip is decoded and subscribed,
// each durable before its call returns. Beside ms/op it reports what the
// product's own counters saw per operation: WAL fsyncs, WAL plane records
// and full checkpoints.
func BenchmarkDurableChurn(b *testing.B) {
	const queries = 532
	clips := make([][]byte, queries)
	ids := make([]int, queries)
	readers := make([]io.Reader, queries)
	for i := range clips {
		var buf bytes.Buffer
		err := Synthesize(&buf, VideoOptions{Seconds: 10, FPS: 2, W: 48, H: 48, Seed: int64(1000 + i), Quality: 80, GOP: 1})
		if err != nil {
			b.Fatal(err)
		}
		clips[i] = buf.Bytes()
		ids[i], readers[i] = i, bytes.NewReader(clips[i])
	}
	cfg := DefaultConfig()
	cfg.CheckpointDir = b.TempDir()
	det, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer det.Close()
	if err := det.AddQueries(ids, readers); err != nil {
		b.Fatal(err)
	}
	churn := func(i int) {
		if err := det.RemoveQuery(i); err != nil {
			b.Fatal(err)
		}
		if err := det.AddQuery(queries+i, bytes.NewReader(clips[i%queries])); err != nil {
			b.Fatal(err)
		}
	}
	churn(0) // a young lineage's first compaction is not the steady state
	counters := func() (fsyncs, records, checkpoints float64) {
		var buf bytes.Buffer
		if err := telemetry.Default.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
		exp, err := telemetry.ParseExposition(&buf)
		if err != nil {
			b.Fatal(err)
		}
		fsyncs, _ = exp.Value("vcd_wal_fsync_duration_seconds_count")
		for _, op := range []string{"add", "remove"} {
			v, _ := exp.Value("vcd_wal_plane_records_total", telemetry.L("op", op))
			records += v
		}
		checkpoints, _ = exp.Value("vcd_checkpoints_total")
		return
	}
	f0, r0, c0 := counters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		churn(i)
	}
	b.StopTimer()
	f1, r1, c1 := counters()
	n := float64(b.N)
	b.ReportMetric(b.Elapsed().Seconds()*1e3/n, "ms/op")
	b.ReportMetric((f1-f0)/n, "fsyncs/op")
	b.ReportMetric((r1-r0)/n, "wal-records/op")
	b.ReportMetric((c1-c0)/n, "checkpoints/op")
}
