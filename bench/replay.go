package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"vdsms"
	"vdsms/internal/core"
	"vdsms/internal/feature"
	"vdsms/internal/minhash"
	"vdsms/internal/mpeg"
	"vdsms/internal/partition"
	"vdsms/internal/prefilter"
	"vdsms/internal/qindex"
	"vdsms/internal/snapshot"
)

// The traced replay walks the workload's segments stage by stage through
// the layers' public functions, with a span around each call. What the
// facade does in one Monitor or PushSegment call is here spelled out, so
// the replay is a second implementation of the ingest path made only of
// the layers' exported pieces; trace.unattributed_ratio says how far the
// sum of those pieces is from the real front door.
//
// Every workload's replay crosses every layer, so that each per-layer
// metric exists on each workload at that workload's query plane. The
// layers on the workload's own path are recorded under its unit's root span
// (bench.segment or bench.round); the others are off-path probes with no
// root, and do not count towards the workload's attribution.

const (
	// maxReplayPasses bounds the spans a traced run holds and writes.
	maxReplayPasses = 6
	// probeRounds fleet rounds, probeChurns churn ops and probeWindows WAL
	// windows measure a layer that is off the workload's path.
	probeRounds  = 2
	probeChurns  = 3
	probeWindows = 64
)

// engineConfig is the core configuration vdsms.NewDetector derives from
// cfg, for the fields DefaultConfig and the workloads set.
func engineConfig(cfg vdsms.Config) core.Config {
	return core.Config{
		K: cfg.K, Seed: cfg.Seed, Delta: cfg.Delta, Lambda: cfg.Lambda,
		WindowFrames: int(math.Round(cfg.WindowSec * cfg.KeyFPS)),
		Order:        core.Sequential,
		Method:       core.Bit,
		UseIndex:     true,
		PreFilter:    cfg.PreFilter,
	}
}

type replay struct {
	c       *corpus
	def     *workloadDef
	spliced int
	tr      *tracer
	dir     string

	ex      *feature.Extractor
	pt      partition.Partitioner
	scratch []float64
	cfg     core.Config
	meta    snapshot.Meta

	qs  *core.QuerySet
	fam *minhash.Family
	// idx and pf shadow the plane's own index and Bloom tier, which the
	// plane does not export: they are built from the same sketches.
	idx *qindex.Index
	pf  *prefilter.Filter

	// cells holds the stream's windows as cell ids, kept from the first
	// segment pass for the probes that start from cell ids.
	cells [][]uint64
	// batches totals the spans of each segment pass, pass of fleet rounds
	// and off-path probe; a timing is the median over the batches that
	// recorded it.
	batches []map[string]agg

	// churnable lists, oldest first, the queries a churn op may remove: the
	// spliced ones, or the true ones on a workload that has none.
	churnable           []int
	nextSpliced         int
	wal                 *snapshot.WAL
	walFrames           int
	walBytes, ckptBytes int64
	failed              int

	out map[string]metric
	// shares is each layer's self time on the workload's path as a share of
	// the root spans' total.
	shares map[string]float64
}

// counts are the work counters of one segment pass.
type counts struct {
	windows, frames, bytes                   int
	distinct, hashes                         int
	rowProbes, rowRejects, empty             int
	comparisons, related, pruned             int
	sigOrs, sigTests, candidates, signatures int64
}

func newReplay(c *corpus, def *workloadDef, spliced int, dir string) (*replay, error) {
	cfg := vdsms.DefaultConfig()
	cfg.PreFilter = def.preFilter
	ex, err := feature.NewExtractor(feature.Config{D: cfg.D})
	if err != nil {
		return nil, err
	}
	pt, err := partition.New(cfg.U, cfg.D, partition.GridPyramid)
	if err != nil {
		return nil, err
	}
	return &replay{
		c: c, def: def, spliced: spliced, tr: newTracer(), dir: dir,
		ex: ex, pt: pt, scratch: make([]float64, cfg.D),
		cfg:         engineConfig(cfg),
		meta:        snapshot.Meta{U: cfg.U, D: cfg.D, KeyFPS: cfg.KeyFPS},
		nextSpliced: spliced,
		out:         make(map[string]metric),
	}, nil
}

func (r *replay) set(name string, v float64, unit string) {
	r.out[name] = metric{Name: name, Value: v, Unit: unit}
}

func (r *replay) setExact(name string, v float64, unit string) {
	r.out[name] = metric{Name: name, Value: v, Unit: unit, Exact: true}
}

// setTiming reports the median of per-pass values, with its quartiles.
func (r *replay) setTiming(name string, perPass []float64, unit string) {
	s := summarise(perPass)
	r.out[name] = metric{Name: name, Value: s.Median, Unit: unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
}

func (r *replay) key(pass, stream, window int) string {
	return fmt.Sprintf("%s/%d/%d/%d", r.def.name, pass, stream, window)
}

// frontEnd takes one MVC1 clip through partial decode, feature vector and
// cell id, as the facade's Monitor, PushSegment and AddQuery all do.
func (r *replay) frontEnd(parent int, key string, clip []byte) ([]uint64, error) {
	id := r.tr.begin(parent, "mpeg.decode", key)
	pd, err := mpeg.NewPartialDecoder(bytes.NewReader(clip))
	var dcs []*mpeg.DCFrame
	for err == nil {
		var dcf *mpeg.DCFrame
		if dcf, err = pd.Next(); err == nil {
			dcs = append(dcs, dcf)
		}
	}
	r.tr.endN(id, len(dcs))
	if err != io.EOF {
		return nil, fmt.Errorf("decoding %s: %w", key, err)
	}
	id = r.tr.begin(parent, "feature.vector", key)
	vecs := make([][]float64, len(dcs))
	for i, dcf := range dcs {
		vecs[i] = r.ex.Vector(dcf)
	}
	r.tr.endN(id, len(dcs))
	id = r.tr.begin(parent, "partition.cell", key)
	cells := make([]uint64, len(vecs))
	for i, v := range vecs {
		cells[i] = r.pt.CellInto(v, r.scratch)
	}
	r.tr.endN(id, len(dcs))
	return cells, nil
}

// buildPlane subscribes the workload's queries to a fresh query plane in
// one AddBatch, then builds the shadow index and Bloom tier from the same
// sketches.
func (r *replay) buildPlane() error {
	ids, clips := subscription(r.c, r.spliced)
	n := len(ids)
	cells := make([][]uint64, n)
	quiet := *r
	quiet.tr = newTracer() // thousands of query-decode spans nobody reads
	for i, clip := range clips {
		data, err := io.ReadAll(clip)
		if err != nil {
			return err
		}
		if cells[i], err = quiet.frontEnd(0, r.def.name+"/subscribe", data); err != nil {
			return err
		}
	}
	r.churnable = slices.Clone(ids[len(r.c.shorts):])
	if r.spliced == 0 {
		r.churnable = slices.Clone(ids)
	}
	qs, err := core.NewQuerySet(r.cfg.K, r.cfg.Seed, r.cfg.UseIndex)
	if err != nil {
		return err
	}
	if r.cfg.PreFilter {
		qs.EnablePreFilter()
	}
	key := r.def.name + "/setup"
	sp := r.tr.begin(0, "core.addbatch", key)
	err = qs.AddBatch(ids, cells)
	r.set("core.addbatch_s", float64(r.tr.end(sp))/1e9, "s")
	if err != nil {
		return err
	}
	r.qs, r.fam = qs, qs.Family()
	r.setExact("core.plane_bytes", float64(qs.PlaneBytes()), "B")

	queries := make([]qindex.Query, n)
	for i := range queries {
		queries[i] = qindex.Query{ID: ids[i], Length: len(cells[i]), Sketch: r.fam.SketchSet(cells[i])}
	}
	sp = r.tr.begin(0, "qindex.build", key)
	r.idx, err = qindex.Build(queries)
	r.set("qindex.build_s", float64(r.tr.end(sp))/1e9, "s")
	if err != nil {
		return err
	}
	r.setExact("qindex.bytes_per_query", float64(r.idx.Bytes())/float64(n), "B")

	sp = r.tr.begin(0, "prefilter.build", key)
	r.pf = prefilter.New((n+n/4+4)*r.cfg.K, 0) // the plane's own sizing
	for _, q := range queries {
		r.pf.AddSketch(q.Sketch)
	}
	r.tr.end(sp)
	r.setExact("prefilter.bytes_per_query", float64(r.pf.Bytes())/float64(n), "B")
	return nil
}

// window pushes one window of cell ids into the engine under a core.window
// span. The function it returns re-runs the three calls the engine makes
// inside — sketch, row mask, probe — as shadow spans on the same input; the
// caller runs it later, outside any unit's root span. The Bloom tier's
// shadow counts against the window only on a workload that has the tier on.
func (r *replay) window(parent int, key string, eng *core.Engine, cells []uint64, n *counts) func() error {
	before := eng.Stats()
	win := r.tr.begin(parent, "core.window", key)
	eng.PushFrames(cells)
	r.tr.end(win)
	after := eng.Stats()
	return func() error { r.windowShadows(win, key, cells, n, before, after); return nil }
}

func (r *replay) windowShadows(win int, key string, cells []uint64, n *counts, before, after core.Stats) {
	sp := r.tr.shadow(win, "minhash.sketch", key)
	sk := r.fam.SketchSet(cells)
	r.tr.end(sp)

	maskParent := 0
	if r.cfg.PreFilter {
		maskParent = win
	}
	sp = r.tr.shadow(maskParent, "prefilter.rowmask", key)
	mask := qindex.NewRowMask(len(sk))
	rejected := 0
	for i, v := range sk {
		if r.pf.MayContain(i, v) {
			mask.Set(i)
		} else {
			rejected++
		}
	}
	r.tr.end(sp)

	probeMask := mask
	if !r.cfg.PreFilter {
		probeMask = nil
	}
	sp = r.tr.shadow(win, "qindex.probe", key)
	po := r.idx.ProbeShardMasked(sk, r.cfg.Delta, 0, 1, probeMask)
	r.tr.end(sp)
	empty := po.EmptySearches
	if !r.cfg.PreFilter {
		// Off the path the tier's false positives still need a masked probe.
		empty = r.idx.ProbeShardMasked(sk, r.cfg.Delta, 0, 1, mask).EmptySearches
	}

	if n == nil {
		return
	}
	seen := make(map[uint64]bool, len(cells))
	for _, c := range cells {
		seen[c] = true
	}
	n.windows++
	n.distinct += len(seen)
	n.hashes += len(cells) * r.cfg.K
	n.rowProbes += len(sk)
	n.rowRejects += rejected
	n.empty += empty
	n.comparisons += po.Comparisons
	n.related += len(po.Related)
	n.pruned += len(po.Pruned)
	n.sigOrs += after.SigOrs - before.SigOrs
	n.sigTests += after.SigTests - before.SigTests
	n.candidates += after.CandidateSum - before.CandidateSum
	n.signatures += after.SignatureSum - before.SignatureSum
}

// walWindow logs one window durably, as Detector.Monitor does before it
// pushes the window into the engine.
func (r *replay) walWindow(parent int, key string, cells []uint64) {
	sp := r.tr.begin(parent, "snapshot.wal_append", key)
	err := r.wal.Append(cells)
	r.tr.end(sp)
	sp = r.tr.begin(parent, "snapshot.wal_sync", key)
	if err == nil {
		err = r.wal.Sync()
	}
	r.tr.end(sp)
	r.walFrames += len(cells)
	if err != nil {
		r.failed++
	}
}

// checkpoint writes the engine's full state and starts a fresh WAL, as
// Detector.Checkpoint does.
func (r *replay) checkpoint(parent int, key string, eng *core.Engine) error {
	sp := r.tr.begin(parent, "core.export_state", key)
	ck := &snapshot.Checkpoint{Meta: r.meta, Engine: *eng.ExportState()}
	r.tr.end(sp)
	path := filepath.Join(r.dir, vdsms.CheckpointFileName)
	sp = r.tr.begin(parent, "snapshot.checkpoint_write", key)
	err := snapshot.WriteFileAtomic(path, func(w io.Writer) error { return snapshot.Write(w, ck) })
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if st, err := os.Stat(path); err == nil {
		r.ckptBytes = st.Size()
	}
	sp = r.tr.begin(parent, "snapshot.wal_create", key)
	defer r.tr.end(sp)
	if err := r.closeWAL(); err != nil {
		return err
	}
	r.wal, err = snapshot.CreateWAL(filepath.Join(r.dir, vdsms.WALFileName),
		r.cfg.Fingerprint(r.meta), ck.Engine.Frame)
	return err
}

// closeWAL closes the current WAL, if any, and adds its size to walBytes.
func (r *replay) closeWAL() error {
	if r.wal == nil {
		return nil
	}
	if st, err := os.Stat(filepath.Join(r.dir, vdsms.WALFileName)); err == nil {
		r.walBytes += st.Size()
	}
	err := r.wal.Close()
	r.wal = nil
	return err
}

// churn is one subscription change on a durable detector: remove the
// oldest spliced query, checkpoint, decode and add a fresh one, checkpoint.
// The plane clones its index once for each half; the shadow index does the
// same under shadow spans, in the function churn returns.
func (r *replay) churn(parent int, key string, eng *core.Engine) (func() error, error) {
	oldID, newID := r.churnable[0], splicedBase+r.nextSpliced
	r.churnable = append(r.churnable[1:], newID)
	r.nextSpliced++

	rem := r.tr.begin(parent, "core.remove", key)
	err := r.qs.Remove(oldID)
	r.tr.end(rem)
	if err != nil {
		return nil, err
	}
	if err := r.checkpoint(parent, key, eng); err != nil {
		return nil, err
	}
	cells, err := r.frontEnd(parent, key, r.c.spliced(newID-splicedBase))
	if err != nil {
		return nil, err
	}
	add := r.tr.begin(parent, "core.add", key)
	err = r.qs.Add(newID, cells)
	r.tr.end(add)
	if err != nil {
		return nil, err
	}
	if err := r.checkpoint(parent, key, eng); err != nil {
		return nil, err
	}
	return func() error { return r.churnShadows(rem, add, key, oldID, newID, cells) }, nil
}

func (r *replay) churnShadows(rem, add int, key string, oldID, newID int, cells []uint64) error {
	sp := r.tr.shadow(rem, "qindex.clone", key)
	idx := r.idx.Clone()
	r.tr.end(sp)
	sp = r.tr.shadow(rem, "qindex.remove", key)
	err := idx.Remove(oldID)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.tr.shadow(add, "qindex.clone", key)
	idx = idx.Clone()
	r.tr.end(sp)
	sk := r.fam.SketchSet(cells)
	sp = r.tr.shadow(add, "qindex.add", key)
	err = idx.Add(qindex.Query{ID: newID, Length: len(cells), Sketch: sk})
	r.tr.end(sp)
	r.idx = idx
	// The shadow Bloom tier only ever gains keys, which keeps it free of
	// false negatives; the removed query's keys are left in place.
	r.pf.AddSketch(sk)
	return err
}

// segmentPass takes every segment of the stream through the single-stream
// path with a fresh engine. On a durable workload the WAL and the churn op
// are inside the segment's root span.
func (r *replay) segmentPass(pass int, n *counts) error {
	eng, err := core.NewEngineWith(r.cfg, r.qs)
	if err != nil {
		return err
	}
	from := len(r.tr.spans)
	defer func() { r.endBatch(from) }()
	if r.def.durable {
		if err := r.checkpoint(0, r.key(pass, 0, -1), eng); err != nil {
			return err
		}
	}
	// The shadows run once the walk is over, in the order of the calls they
	// repeat: run between the windows, the shadow index and the plane's own
	// would keep evicting each other from the cache, and both would be
	// timed cold.
	var shadows []func() error
	for w, seg := range r.c.segments {
		key := r.key(pass, 0, w)
		root := r.tr.begin(0, "bench.segment", key)
		cells, err := r.frontEnd(root, key, seg)
		if err != nil {
			return err
		}
		if r.def.durable {
			r.walWindow(root, key, cells)
		}
		shadows = append(shadows, r.window(root, key, eng, cells, n))
		if r.def.durable && (w+1)%churnEvery == 0 {
			churnShadows, err := r.churn(root, key, eng)
			if err != nil {
				return err
			}
			shadows = append(shadows, churnShadows)
		}
		r.tr.end(root)
		if n != nil {
			n.frames += len(cells)
			n.bytes += len(seg)
			r.cells = append(r.cells, cells)
		}
	}
	for _, shadow := range shadows {
		if err := shadow(); err != nil {
			return err
		}
	}
	return nil
}

// agg totals the spans of one name within a batch: a segment pass, a pass
// of fleet rounds, or one off-path probe.
type agg struct {
	ns    int64
	calls int
	items int
}

func sumByName(spans []span) map[string]agg {
	out := make(map[string]agg)
	for _, s := range spans {
		a := out[s.Name]
		a.ns += s.dur()
		a.calls++
		a.items += s.N
		out[s.Name] = a
	}
	return out
}

// endBatch closes the batch of spans recorded since index from.
func (r *replay) endBatch(from int) {
	r.batches = append(r.batches, sumByName(r.tr.spans[from:]))
}

// perCall returns, for every batch that recorded the name, the mean
// nanoseconds per call (or per item, for spans that count items).
func (r *replay) perCall(name string, perItem bool) []float64 {
	var out []float64
	for _, b := range r.batches {
		a, ok := b[name]
		if !ok {
			continue
		}
		div := a.calls
		if perItem {
			div = a.items
		}
		out = append(out, float64(a.ns)/float64(div))
	}
	return out
}

// run performs the whole traced replay within roughly the given budget and
// fills r.out with every per-layer metric. untracedUnitNS is the mean time
// of one ingest unit through the real front door with tracing off, measured
// by the caller in this same process.
func (r *replay) run(budget time.Duration, untracedUnitNS float64) error {
	if err := r.buildPlane(); err != nil {
		return err
	}
	deadline := time.Now().Add(budget)
	fleetOnPath := r.def.streams > 0

	// Segment passes. On the fleet workload the single-stream path is off
	// the path and one pass suffices; the counts always come from pass 0.
	var n counts
	for p := 0; p < maxReplayPasses; p++ {
		np := &n
		if p > 0 {
			np = nil
		}
		if err := r.segmentPass(p, np); err != nil {
			return err
		}
		if fleetOnPath || time.Now().After(deadline) {
			break
		}
	}
	if !r.def.durable {
		if err := r.durabilityProbe(); err != nil {
			return err
		}
	}
	streams, rounds := r.def.streams, maxReplayPasses*fleetLoop
	if !fleetOnPath {
		streams, rounds = 64, probeRounds
	}
	fs, err := r.fleetRounds(streams, rounds, deadline)
	if err != nil {
		return err
	}
	if err := r.frontDoorProbe(); err != nil {
		return err
	}
	telRatio, allocs, allocBytes, err := r.kernelProbe()
	if err != nil {
		return err
	}
	if err := r.closeWAL(); err != nil {
		return err
	}

	us := func(name, span string, perItem bool) {
		r.setTiming(name, scale(r.perCall(span, perItem), 1e-3), "us")
	}
	ms := func(name, span string) {
		r.setTiming(name, scale(r.perCall(span, false), 1e-6), "ms")
	}
	w := float64(n.windows)
	us("mpeg.decode_us_per_frame", "mpeg.decode", true)
	r.setExact("mpeg.bytes_per_frame", float64(n.bytes)/float64(n.frames), "B")
	us("feature.vector_us_per_frame", "feature.vector", true)
	us("partition.cell_us_per_frame", "partition.cell", true)
	r.setExact("partition.distinct_cells_per_window", float64(n.distinct)/w, "count")
	us("minhash.sketch_us_per_window", "minhash.sketch", false)
	r.setExact("minhash.hashes_per_window", float64(n.hashes)/w, "count")
	us("prefilter.rowmask_us_per_window", "prefilter.rowmask", false)
	r.setExact("prefilter.reject_ratio", float64(n.rowRejects)/float64(n.rowProbes), "ratio")
	r.setExact("prefilter.false_positive_ratio", float64(n.empty)/float64(max(n.rowProbes-n.rowRejects, 1)), "ratio")
	us("qindex.probe_us_per_window", "qindex.probe", false)
	r.setExact("qindex.comparisons_per_window", float64(n.comparisons)/w, "count")
	r.setExact("qindex.related_per_window", float64(n.related)/w, "count")
	r.setExact("qindex.pruned_per_window", float64(n.pruned)/w, "count")
	us("qindex.add_us", "qindex.add", false)
	us("qindex.remove_us", "qindex.remove", false)
	us("qindex.clone_us", "qindex.clone", false)
	r.setExact("bitsig.ors_per_window", float64(n.sigOrs)/w, "count")
	r.setExact("bitsig.tests_per_window", float64(n.sigTests)/w, "count")
	us("core.window_us", "core.window", false)
	r.setTiming("core.self_us_per_window", scale(r.coreSelf(), 1e-3), "us")
	r.set("core.allocs_per_window", allocs, "count")
	r.set("core.alloc_bytes_per_window", allocBytes, "B")
	r.setExact("core.candidates_per_window", float64(n.candidates)/w, "count")
	r.setExact("core.signatures_per_window", float64(n.signatures)/w, "count")
	us("snapshot.wal_append_us_per_window", "snapshot.wal_append", false)
	us("snapshot.wal_sync_us_per_window", "snapshot.wal_sync", false)
	r.setExact("snapshot.wal_bytes_per_frame", float64(r.walBytes)/float64(r.walFrames), "B")
	ms("snapshot.checkpoint_write_ms", "snapshot.checkpoint_write")
	r.setExact("snapshot.checkpoint_bytes", float64(r.ckptBytes), "B")
	us("fleet.push_us_per_segment", "fleet.push", false)
	us("fleet.push_segment_us", "fleet.push_segment", false)
	ms("fleet.drain_wait_ms_per_round", "fleet.drain_wait")
	r.set("fleet.passes_per_segment", float64(fs.passes)/float64(fs.pushes), "ratio")
	r.set("fleet.worker_frames_skew", fs.skew, "ratio")
	r.set("fleet.queue_depth_hw", float64(fs.queueHW), "count")
	r.set("fleet.rejected_pushes", float64(fs.rejected), "count")
	r.set("fleet.bytes_per_stream", fs.bytesPerStream, "B")
	us("server.post_frames_us", "server.post_frames", false)
	r.set("server.http_overhead_us", r.out["server.post_frames_us"].Value-r.out["fleet.push_segment_us"].Value, "us")
	r.set("telemetry.overhead_ratio", telRatio, "ratio")

	rootName := "bench.segment"
	if fleetOnPath {
		rootName = "bench.round"
	}
	var rootNS float64
	units := 0
	for _, s := range r.tr.spans {
		if s.Parent == 0 && s.Name == rootName {
			rootNS += float64(s.dur())
			units++
		}
	}
	r.shares = make(map[string]float64)
	var attributed float64
	for layer, ns := range layerSelf(r.tr.spans, rootName) {
		r.shares[layer] = float64(ns) / rootNS
		if layer != "bench" {
			attributed += float64(ns)
		}
	}
	r.set("trace.unattributed_ratio", 1-attributed/float64(units)/untracedUnitNS, "ratio")
	r.set("trace.overhead_ratio", rootNS/float64(units)/untracedUnitNS, "ratio")
	r.failed += fs.rejected
	return nil
}

// coreSelf is, per batch, the window time left once the shadows of the
// calls the engine makes inside it are taken away.
func (r *replay) coreSelf() []float64 {
	var out []float64
	for _, b := range r.batches {
		win, ok := b["core.window"]
		if !ok {
			continue
		}
		ns := win.ns - b["minhash.sketch"].ns - b["qindex.probe"].ns
		if r.cfg.PreFilter {
			ns -= b["prefilter.rowmask"].ns
		}
		out = append(out, float64(ns)/float64(win.calls))
	}
	return out
}

func scale(vs []float64, by float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * by
	}
	return out
}
