// Package vdsms is a Video Data Stream Management System for continuous
// content-based copy detection over streaming videos, reproducing Yan, Ooi
// and Zhou (ICDE 2008).
//
// A Detector monitors compressed video streams (the repository's MVC1
// format; see internal/mpeg) for copies of subscribed query videos. Frames
// are fingerprinted in the compressed domain (DC coefficients of key
// frames, grid–pyramid cell ids), sequences are compared by set similarity
// estimated with K-min-hash sketches, and the per-window work is done with
// 2K-bit vector signatures pruned by Lemma 2 and accelerated by a
// Hash-Query index over the query sketches. Detection is robust to
// brightness/colour edits, noise, resolution and frame-rate changes, and —
// the paper's headline property — temporal reordering of the copied
// material.
//
// Typical use:
//
//	det, _ := vdsms.NewDetector(vdsms.DefaultConfig())
//	det.AddQuery(1, queryClipReader)      // an encoded MVC1 clip
//	matches, _ := det.Monitor(streamReader)
//
// Synthesize, ApplyEdits and ComposeStream generate demo material so the
// examples run without any video assets.
package vdsms

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vdsms/internal/core"
	"vdsms/internal/degrade"
	"vdsms/internal/feature"
	"vdsms/internal/mpeg"
	"vdsms/internal/partition"
	"vdsms/internal/perfobs"
	"vdsms/internal/snapshot"
	"vdsms/internal/trace"
)

// Config parameterises a Detector. DefaultConfig returns the paper's
// Table I defaults.
type Config struct {
	// K is the number of min-hash functions.
	K int
	// Seed fixes the hash family; detectors that must agree on sketches
	// need equal (K, Seed).
	Seed int64
	// Delta is the similarity threshold δ in (0, 1].
	Delta float64
	// Lambda bounds candidate length to λ × query length.
	Lambda float64
	// WindowSec is the basic window duration w in seconds of stream time.
	WindowSec float64
	// KeyFPS is the expected key-frame rate of monitored streams
	// (stream fps ÷ GOP). Streams whose rate differs by more than 20% are
	// rejected so window durations stay meaningful.
	KeyFPS float64
	// U is the grid partition granularity; D the feature dimensionality.
	U, D int
	// Sequential, when true, uses the Sequential candidate order
	// (higher accuracy); otherwise Geometric (lower cost).
	Sequential bool
	// UseSketchMethod selects raw sketch comparison instead of bit
	// signatures (mainly for experimentation; bit signatures are strictly
	// faster at equal accuracy).
	UseSketchMethod bool
	// NoIndex disables the Hash-Query index (linear scan per window).
	NoIndex bool
	// PreFilter is ignored. It put an exact row pre-filter in front of the
	// Hash-Query index; the index now reads only the posting lists of each
	// window's winning cells, which is the pre-filter's work done once
	// (DESIGN.md §10). It stays for one release so that code setting it
	// still compiles.
	PreFilter bool
	// ArchiveSec, when positive, keeps the most recent ArchiveSec seconds
	// of the monitored stream's compressed frames in memory so that, on a
	// match, the matched segment can be saved as a standalone clip for
	// further analysis (delivered via OnMatchClip). This is the paper's
	// "only store the video sequences which are relevant to the queries".
	ArchiveSec float64
	// CheckpointDir, when non-empty, enables crash recovery: the detector
	// keeps a checkpoint of its full matching state plus a write-ahead log
	// of the frames consumed and the queries subscribed or unsubscribed
	// since in this directory. Restart with Resume to continue exactly
	// where a crashed run stopped. One directory serves one detector
	// lineage; see DESIGN.md "Checkpoint/restore".
	CheckpointDir string
	// SlowWindow is the slow-window budget: any basic window whose kernel
	// processing exceeds it is counted, its per-window record is kept in
	// the lineage's span ring and outlier top-K (Detector.Spans) whatever
	// the sampling rate (tail capture), and it is reported via OnSlowWindow
	// when set, else as one log line. The budget covers this detector, its
	// NewStream siblings and its fleets; fleet streams are counted and
	// kept, not reported. Zero or negative disables capture. The natural
	// budget for live input is WindowSec (-slow-window budget on vcdmon and
	// vcdserve). The budget is runtime-adjustable after construction via
	// Detector.SetSlowWindow (and POST /debug/slow-window on the server).
	SlowWindow time.Duration
	// TraceEvents arms decision-provenance tracing: candidate-lifecycle
	// events (born, extended, pruned, dropped, expired, reported, near_miss)
	// are journaled in the lineage's bounded ring (Detector.Journal), and
	// every emitted match gets a provenance record (see Detector.MatchRecord).
	// Zero disables tracing — the matching kernel then does no extra work at
	// all. The lineage's first detector sizes the ring once, at this many
	// events or trace.DefaultEventCap, whichever is larger; its NewStream
	// siblings and fleets share it.
	TraceEvents int
	// AuditFraction, in (0, 1], arms the sampled exact-audit channel (and
	// implies tracing): about this fraction of report and prune decisions
	// are recomputed exactly from raw cell-id sets and scored against
	// Theorem 1's deviation bound, feeding the vcd_sketch_error_abs
	// histograms and vcd_sketch_error_bound_violations_total. Zero disables
	// auditing.
	AuditFraction float64
	// StreamName labels this detector's stream in the trace journal and the
	// /debug/events output. Empty auto-assigns "stream-N".
	StreamName string
	// RealTimeBudget arms the overload controller: the per-window ingest
	// latency (decode + extract + matching kernel) whose p99 must stay
	// under this bound. Sustained breaches raise a bounded shed level with
	// hysteresis; sustained headroom lowers it. Zero leaves the controller
	// unarmed (it can still be armed later via SetRealTimeBudget). The
	// natural budget for live input is WindowSec of wall time. See
	// DESIGN.md "Overload & graceful degradation".
	RealTimeBudget time.Duration
	// Shed lets the monitor loop act on the shed level: low-motion key
	// frames substitute their previous cell id instead of extracting, and
	// at higher levels low-delta frames skip entropy decode entirely.
	// Without Shed the armed controller runs observe-only — the level and
	// /readyz still report overload, but no work is dropped.
	Shed bool
	// Resync enables fault-tolerant ingest: corrupt frames are skipped or
	// substituted (with a byte-scan resynchronisation when frame sync is
	// lost), truncation ends the stream cleanly instead of erroring, and
	// transient read errors are absorbed with retry and backoff. Damage
	// counters surface in Overload() and the vcd_decode_resync_* metrics.
	Resync bool
}

// DefaultConfig returns the paper's default parameters: K=800, δ=0.7,
// u=4, d=5, w=5s, λ=2, Bit method, Sequential order, index enabled.
func DefaultConfig() Config {
	return Config{
		K: 800, Delta: 0.7, Lambda: 2, WindowSec: 5, KeyFPS: 2,
		U: 4, D: 5, Sequential: true,
	}
}

// Match is one detected copy, in stream time.
type Match struct {
	// QueryID identifies the matched query.
	QueryID int
	// Start and End delimit the matching candidate sequence.
	Start, End time.Duration
	// DetectedAt is the stream time at which the match was reported.
	DetectedAt time.Duration
	// Similarity is the estimated set similarity (≥ the configured δ).
	Similarity float64
}

// Stats reports detector-side operation counters; see core.Stats for field
// semantics.
type Stats = core.Stats

// Detector is the continuous copy-detection facade. It is not safe for
// concurrent use.
type Detector struct {
	cfg      Config
	pipeline pipeline
	engine   *core.Engine
	winKeyF  int
	// OnMatch, when set, receives matches as the stream is consumed.
	OnMatch func(Match)
	// OnMatchClip, when set together with Config.ArchiveSec, additionally
	// receives a standalone MVC1 clip of the matched stream segment
	// (starting at the nearest retained I-frame before the match). The
	// clip is only as long as the retention window allows.
	OnMatchClip func(Match, []byte)
	// OnSlowWindow, when set together with an armed slow-window budget
	// (Config.SlowWindow or SetSlowWindow), receives the record of
	// every basic window that exceeded it, replacing the default log line.
	// Set before monitoring.
	OnSlowWindow func(SlowWindowTrace)

	// Replayed holds the matches re-derived from the WAL tail by Resume.
	// They were (at least partially) delivered by the crashed run already —
	// recovery is at-least-once for the frames after the last checkpoint —
	// so they are reported here instead of through OnMatch.
	Replayed []Match

	// The lineage's diagnostics, shared by every engine of this detector's
	// lineage and its fleets: the trace journal, the span collector (with
	// its outlier sketches) and the slow-window budget in nanoseconds. The
	// journal recorder is this stream's, when tracing is armed (trace.go).
	journal *trace.Journal
	spans   *perfobs.Collector
	slow    *atomic.Int64
	tracer  *trace.Recorder

	// Adaptive-ingest state (see degrade.go): the overload controller is
	// shared across the lineage from its first arm, like slow; ovl holds
	// this stream's sampler, motion scorer and damage counters.
	ctl *degrade.Controller
	ovl *ovlState

	// Front-end state Monitor calls hand on to one another: the reused
	// buffers, the substitute cell id (a segment may open on a placeholder)
	// and the window batch.
	front frontEnd
	batch []uint64

	// perfLabel is the stream label this detector's records and outlier
	// observations carry (resolved by arm from the trace stream name).
	perfLabel string

	// Checkpoint state (armed when Config.CheckpointDir is set): the open
	// log and the size of the checkpoint it extends.
	wal       *snapshot.WAL
	ckptBytes int64

	// Per-Monitor-call archival state.
	curPD   *mpeg.PartialDecoder
	keyBase int   // engine key-frame ordinal at the segment start
	keyMap  []int // key ordinal − keyBase → stream frame index
}

// pipeline is the front end's fixed half: how a DC grid becomes a feature
// vector and a vector a cell id. Detectors of one lineage and their fleets
// share it.
type pipeline struct {
	ex *feature.Extractor
	pt partition.Partitioner
}

// frontEnd is the front end's moving half, what one consumer of
// pipeline.next carries from batch to batch: the batch every frame is
// decoded into (made on first ingest), the extraction buffers, the cell id
// that stands in for a frame with nothing to extract, and Monitor's two
// additions — the shed hook and the engine the frames are for. The zero
// value is ready to use.
type frontEnd struct {
	batch *mpeg.Batch // the key frames last decoded; their grids are reused
	buf   []float64   // the feature vector, then CellInto's scratch
	last  uint64      // the most recent extracted cell id
	// shed, when set, is asked about every decoded frame and answers true to
	// skip its extraction.
	shed func(*mpeg.DCFrame) bool
	// eng, when set and timed, is staged each batch's decode and extract
	// time, which the window that consumes the frames carries.
	eng *core.Engine
}

// next is the one path from MVC1 bytes to cell ids, shared by Monitor,
// PushSegment and AddQuery: it decodes up to len(ids) of pd's next key
// frames (at most mpeg.MaxBatch) as one batch, writes their grid-pyramid
// cell ids to ids and returns the frames, one per id written — fewer than
// len(ids) only with the error that ended the batch, io.EOF at the clean
// end of the stream. It allocates nothing once the batch has seen the
// stream's largest frames. A frame with nothing to extract — a placeholder
// (lost to corruption, or shed before decoding) or one the shed hook gives
// up — repeats the most recent extracted id, which keeps the window cadence
// the matcher expects.
func (p pipeline) next(pd *mpeg.PartialDecoder, fe *frontEnd, ids []uint64) ([]mpeg.DCFrame, error) {
	if fe.batch == nil {
		fe.batch = new(mpeg.Batch)
	}
	timed := fe.eng != nil && fe.eng.Timed()
	var tDec, tExt time.Time
	if timed {
		tDec = time.Now()
	}
	frames, err := pd.NextBatch(fe.batch, len(ids))
	if timed {
		tExt = time.Now()
	}
	for i := range frames {
		dcf := &frames[i]
		if len(dcf.DC) > 0 && (fe.shed == nil || !fe.shed(dcf)) {
			if fe.buf == nil {
				fe.buf = make([]float64, 2*p.pt.D)
			}
			vec, scratch := fe.buf[:p.pt.D], fe.buf[p.pt.D:]
			fe.last = p.pt.CellInto(p.ex.VectorInto(vec, dcf), scratch)
		}
		ids[i] = fe.last
	}
	if timed {
		fe.eng.Stage(perfobs.StageDecode, tExt.Sub(tDec).Nanoseconds())
		fe.eng.Stage(perfobs.StageExtract, time.Since(tExt).Nanoseconds())
	}
	return frames, err
}

// cells runs next to the end of pd's stream, mpeg.MaxBatch frames a batch,
// and appends the cell ids to out.
func (p pipeline) cells(pd *mpeg.PartialDecoder, fe *frontEnd, out []uint64) ([]uint64, error) {
	for {
		n := len(out)
		out = slices.Grow(out, mpeg.MaxBatch)
		frames, err := p.next(pd, fe, out[n:n+mpeg.MaxBatch])
		out = out[:n+len(frames)]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// queryCells decodes query clip id to the cell ids of its key frames on
// front end fe, which carries nothing from one clip to the next but its
// buffers.
func (p pipeline) queryCells(id int, clip io.Reader, fe *frontEnd) ([]uint64, error) {
	fe.last = 0
	pd, err := mpeg.NewPartialDecoder(clip)
	var cells []uint64
	if err == nil {
		cells, err = p.cells(pd, fe, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("vdsms: decoding query %d: %w", id, err)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("vdsms: query %d has no key frames", id)
	}
	return cells, nil
}

// batchCells is queryCells over a batch of clips, on min(GOMAXPROCS,
// len(clips)) goroutines, the caller among them: each goroutine decodes on
// a front end of its own and takes the next clip from a shared counter,
// which it then reads start to end. Its error is that of the first clip in
// batch order that fails; no clip is taken once one has failed, so every
// clip before the failing one has been read, and some after it may have
// been. A batch of one starts no goroutine.
func (p pipeline) batchCells(ids []int, clips []io.Reader) ([][]uint64, error) {
	if len(ids) != len(clips) {
		return nil, fmt.Errorf("vdsms: AddQueries: %d ids but %d clips", len(ids), len(clips))
	}
	cellIDs := make([][]uint64, len(clips))
	errs := make([]error, len(clips))
	var next atomic.Int64
	var failed atomic.Bool
	decode := func() {
		var fe frontEnd
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= len(clips) {
				return
			}
			if cellIDs[i], errs[i] = p.queryCells(ids[i], clips[i], &fe); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(clips)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode()
		}()
	}
	decode()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cellIDs, nil
}

// checkKeyRate rejects a stream whose key-frame rate is too far from the
// configured one for window durations to mean what they say.
func (c *Config) checkKeyRate(hdr mpeg.StreamHeader) error {
	keyRate := hdr.FPS() / float64(hdr.GOP)
	if keyRate < c.KeyFPS*0.8 || keyRate > c.KeyFPS*1.25 {
		return fmt.Errorf("vdsms: stream key-frame rate %.2f/s incompatible with configured %.2f/s",
			keyRate, c.KeyFPS)
	}
	return nil
}

// NewDetector validates cfg and builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	d, ecfg, err := newDetector(cfg)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	d.arm(eng)
	return d, nil
}

// newDetector validates cfg and builds a detector without its engine, and
// the configuration that engine runs under: NewDetector gives it a fresh
// plane, LoadDetector the plane it reads.
func newDetector(cfg Config) (*Detector, core.Config, error) {
	if cfg.WindowSec <= 0 {
		return nil, core.Config{}, fmt.Errorf("vdsms: WindowSec %g must be positive", cfg.WindowSec)
	}
	if cfg.KeyFPS <= 0 {
		return nil, core.Config{}, fmt.Errorf("vdsms: KeyFPS %g must be positive", cfg.KeyFPS)
	}
	ex, err := feature.NewExtractor(feature.Config{D: cfg.D})
	if err != nil {
		return nil, core.Config{}, err
	}
	pt, err := partition.New(cfg.U, cfg.D, partition.GridPyramid)
	if err != nil {
		return nil, core.Config{}, err
	}
	winKeyF := int(math.Round(cfg.WindowSec * cfg.KeyFPS))
	if winKeyF < 1 {
		winKeyF = 1
	}
	ecfg := core.Config{
		K: cfg.K, Seed: cfg.Seed, Delta: cfg.Delta, Lambda: cfg.Lambda,
		WindowFrames: winKeyF,
		Order:        core.Geometric,
		Method:       core.Bit,
		UseIndex:     !cfg.NoIndex,
	}
	if cfg.Sequential {
		ecfg.Order = core.Sequential
	}
	if cfg.UseSketchMethod {
		ecfg.Method = core.Sketch
	}
	return &Detector{cfg: cfg, pipeline: pipeline{ex: ex, pt: pt}, winKeyF: winKeyF}, ecfg, nil
}

// arm makes eng this detector's engine and wires it: matches to forward,
// the front end's stage timing to the engine, decision tracing
// (Config.TraceEvents, Config.AuditFraction) into the lineage's journal
// and the per-window record's observer — the lineage's span collector
// under the stream's label, its slow-window budget, the slow-window report
// and the overload controller's feed. The first arm of a lineage creates
// its journal, collector, budget and controller (off while its budget is
// 0); neither allocates a ring until it keeps something. Called at every
// engine construction site (NewDetector, NewStreamNamed, LoadDetector,
// Resume); a Fleet's streams get the same observer minus the report and the
// controller (Detector.NewFleet).
func (d *Detector) arm(eng *core.Engine) {
	d.engine, d.front.eng = eng, eng
	eng.OnMatch = d.forward
	if d.ovl == nil {
		d.ovl = &ovlState{sampler: degrade.NewSampler(d.winKeyF)}
		d.front.shed = d.shedExtract
	}
	if d.slow == nil {
		d.slow = new(atomic.Int64)
		d.slow.Store(int64(d.cfg.slowWindowBudget()))
		d.journal = trace.NewJournal(max(d.cfg.TraceEvents, trace.DefaultEventCap), trace.DefaultMatchCap)
		d.spans = perfobs.NewCollector(perfobs.DefaultRing)
		d.ctl = degrade.NewController(d.cfg.RealTimeBudget)
	}
	// The first engine creates the journal recorder; engine swaps
	// (LoadDetector, Resume) re-install it so the detector keeps its stream.
	if d.tracer == nil && (d.cfg.TraceEvents > 0 || d.cfg.AuditFraction > 0) {
		d.tracer = eng.Trace(d.journal, d.cfg.StreamName)
	}
	d.perfLabel = d.cfg.StreamName
	if d.tracer != nil {
		eng.SetTracer(d.tracer)
		if f := d.cfg.AuditFraction; f > 0 { // audit every round(1/f)th decision
			eng.SetAudit(max(1, int(math.Round(1/min(f, 1)))))
		}
		d.perfLabel = d.tracer.StreamName()
	}
	o := d.observer()
	o.Stream, o.OnSlow, o.OnWindow = d.perfLabel, d.slowWindow, d.observeIngestWindow
	eng.Observe(o)
}

// NewStream returns a fresh Detector monitoring an additional concurrent
// stream against this detector's query set. Queries, their sketches and
// the Hash-Query index are shared (one subscription covers every stream,
// as in the paper's multi-stream setting); per-stream candidate state is
// independent, so the returned detector may run in its own goroutine.
// AddQuery/RemoveQuery through any sharing detector affects all of them —
// but only the detector that owns a checkpoint directory logs them, so on
// a durable lineage make subscription changes through that one.
func (d *Detector) NewStream() (*Detector, error) { return d.NewStreamNamed("") }

// NewStreamNamed is NewStream with an explicit trace-journal stream name
// (shown by /debug/events and match records; empty auto-assigns one). The
// new detector joins this detector's lineage: it journals into the same
// journal, keeps spans in the same collector and shares the
// runtime-adjustable slow-window budget and overload controller, so one
// POST /debug/slow-window or SetRealTimeBudget reaches every stream.
func (d *Detector) NewStreamNamed(name string) (*Detector, error) {
	eng, err := core.NewEngineWith(d.engine.Config(), d.engine.Queries())
	if err != nil {
		return nil, err
	}
	ncfg := d.cfg
	// One checkpoint directory holds one detector lineage; additional
	// streams share the query set but must manage their own durability.
	ncfg.CheckpointDir = ""
	ncfg.StreamName = name
	nd := &Detector{cfg: ncfg, pipeline: d.pipeline, winKeyF: d.winKeyF,
		journal: d.journal, spans: d.spans, slow: d.slow, ctl: d.ctl}
	nd.arm(eng)
	return nd, nil
}

// SaveQueries serialises the subscribed queries — each one's id and the
// cell ids of its key frames, under a header naming K and the seed — so a
// monitor can restart, or fan out to other processes, without re-decoding
// the query videos. Load with LoadDetector.
func (d *Detector) SaveQueries(w io.Writer) error {
	return d.engine.Queries().Save(w)
}

// LoadDetector builds a detector from cfg with its query set restored from
// a SaveQueries stream (or one in the older sketch format). The stream's K
// and seed must be cfg's, and a mismatch is refused before any query is
// read; each query's sketch is derived again under cfg's hash family. r
// must end where the set ends: a SaveQueries stream is read to its end, and
// bytes after the set are refused.
func LoadDetector(cfg Config, r io.Reader) (*Detector, error) {
	d, ecfg, err := newDetector(cfg)
	if err != nil {
		return nil, err
	}
	qs, err := core.LoadQuerySet(ecfg, r)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngineWith(ecfg, qs)
	if err != nil {
		return nil, err
	}
	d.arm(eng)
	return d, nil
}

// forward converts engine matches (key-frame indices) to stream time and
// archives the matched segment when requested.
func (d *Detector) forward(m core.Match) {
	conv := d.convert(m)
	if d.OnMatch != nil {
		d.OnMatch(conv)
	}
	if d.OnMatchClip == nil || d.curPD == nil {
		return
	}
	streamIdx := -1 // ClipFrom falls back to the oldest retained I-frame
	if off := m.StartFrame - d.keyBase; off >= 0 && off < len(d.keyMap) {
		streamIdx = d.keyMap[off]
	}
	clip, err := d.curPD.ClipFrom(streamIdx)
	if err != nil {
		return // retention too short: deliver nothing rather than garbage
	}
	d.OnMatchClip(conv, clip)
}

func (d *Detector) convert(m core.Match) Match {
	return convertMatch(m, d.cfg.KeyFPS)
}

// AddQuery subscribes a continuous query from an encoded MVC1 clip. The
// clip is partially decoded; only key-frame fingerprints are retained. On
// a durable detector the change is logged and synced before it takes
// effect (see subscribe), at the cost of one WAL record — not a checkpoint.
func (d *Detector) AddQuery(id int, clip io.Reader) error {
	cells, err := d.pipeline.queryCells(id, clip, new(frontEnd))
	if err != nil {
		return err
	}
	return d.subscribe([]int{id}, [][]uint64{cells})
}

// AddQueries subscribes a batch of continuous queries from encoded MVC1
// clips in one bulk operation: clips are decoded, then the whole batch
// joins the query index as one plane version, copied once rather than
// once per insert. Either every query lands or none does, in memory and
// (one WAL record, one fsync) on disk. The work runs on every core:
// distinct clips may be read concurrently, each by one goroutine from
// start to end, and the sketches are derived in parallel, while the plane
// is built in batch order and is the same whatever the core count. On an
// error, which is that of the first failing clip in batch order, clips
// after the failing one may have been read.
func (d *Detector) AddQueries(ids []int, clips []io.Reader) error {
	cellIDs, err := d.pipeline.batchCells(ids, clips)
	if err != nil {
		return err
	}
	return d.subscribe(ids, cellIDs)
}

// subscribe is validate → log → apply, the order pushLogged follows for
// frames: a subscription the plane would refuse is never logged, and one
// the log could not make durable never reaches the plane. (Without a log
// the engine's own validation is the only one needed.)
func (d *Detector) subscribe(ids []int, cells [][]uint64) error {
	if d.CheckpointingEnabled() {
		if err := d.engine.Queries().CheckAdd(ids, cells); err != nil {
			return err
		}
		if err := d.startLineage(); err != nil {
			return err
		}
		if err := d.wal.LogAdd(ids, cells); err != nil {
			return d.logFailed(err)
		}
	}
	if err := d.engine.AddQueries(ids, cells); err != nil {
		return err
	}
	return d.compactIfOutgrown()
}

// RemoveQuery unsubscribes a query; durable like AddQuery.
func (d *Detector) RemoveQuery(id int) error {
	if d.CheckpointingEnabled() {
		if err := d.engine.Queries().CheckRemove(id); err != nil {
			return err
		}
		if err := d.startLineage(); err != nil {
			return err
		}
		if err := d.wal.LogRemove(id); err != nil {
			return d.logFailed(err)
		}
	}
	if err := d.engine.RemoveQuery(id); err != nil {
		return err
	}
	return d.compactIfOutgrown()
}

// QueryIDs returns the subscribed query ids, ascending — after Resume,
// the queries restored from the checkpoint.
func (d *Detector) QueryIDs() []int { return d.engine.Queries().IDs() }

// NumQueries returns the number of subscribed queries.
func (d *Detector) NumQueries() int { return d.engine.NumQueries() }

// Monitor consumes an encoded stream to EOF, returning the matches found in
// this segment. Detector state persists across calls, so consecutive
// Monitor calls behave as one continuous stream. Matches are also delivered
// incrementally via OnMatch.
func (d *Detector) Monitor(stream io.Reader) ([]Match, error) {
	var rr *degrade.RetryReader
	if d.cfg.Resync {
		// Transient (timeout/temporary) read errors are absorbed with
		// backoff before the decoder ever sees them.
		rr = degrade.NewRetryReader(stream)
		stream = rr
	}
	pd, err := mpeg.NewPartialDecoder(stream)
	if err != nil {
		return nil, err
	}
	if d.cfg.Resync {
		pd.SetResync(true)
		defer func() {
			d.foldResyncStats(pd.ResyncStats())
			if n := rr.Retries(); n > 0 {
				d.ovl.retries.Add(n)
				telReadRetries.Add(n)
			}
		}()
	}
	if d.shedArmed() {
		o, ctl := d.ovl, d.ctl
		// The decode budget's window may be one the previous Monitor call
		// left half-filled.
		o.sampler.SetPhase(d.engine.PendingFrames())
		pd.SetShedCheck(func(payloadBytes int) bool {
			keep := o.sampler.KeepDecode(ctl.Level(), payloadBytes)
			if !keep {
				o.decodeShed.Add(1)
				telShedDecode.Inc()
				d.spans.Outliers().ObserveShed(d.perfLabel, 1)
			}
			return !keep
		})
	}
	hdr := pd.Header()
	if err := d.cfg.checkKeyRate(hdr); err != nil {
		return nil, err
	}
	// Arm archival for this segment.
	if d.cfg.ArchiveSec > 0 && d.OnMatchClip != nil {
		pd.SetRetention(int(d.cfg.ArchiveSec*hdr.FPS()) + 1)
		d.curPD = pd
		d.keyBase = d.engine.Stats().Frames
		d.keyMap = d.keyMap[:0]
		defer func() { d.curPD = nil }()
	}
	maxKeys := int(d.cfg.ArchiveSec*d.cfg.KeyFPS) + 2

	before := len(d.engine.Matches)
	// Key frames are decoded a batch at a time and pushed in batches
	// aligned to basic-window boundaries: a decode batch never reads past
	// the window being filled, and the engine processes each window at
	// exactly the same stream position as per-frame pushing would (so match
	// latency and archival state are unchanged) while the per-frame call
	// overhead is amortised.
	room := d.winKeyF - d.engine.PendingFrames()
	if d.batch == nil {
		d.batch = make([]uint64, 0, d.winKeyF)
	}
	batch := d.batch[:0] // never outgrows a window
	for {
		frames, err := d.pipeline.next(pd, &d.front, d.batch[len(batch):room])
		batch = batch[:len(batch)+len(frames)]
		if d.curPD != nil {
			for i := range frames {
				d.keyMap = append(d.keyMap, frames[i].Info.Index)
			}
			if len(d.keyMap) > maxKeys {
				trim := len(d.keyMap) - maxKeys
				d.keyMap = d.keyMap[trim:]
				d.keyBase += trim
			}
		}
		if len(batch) == room {
			if err := d.pushLogged(batch); err != nil {
				return nil, err
			}
			batch = batch[:0]
			room = d.winKeyF
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if len(batch) > 0 {
		if err := d.pushLogged(batch); err != nil {
			return nil, err
		}
	}
	flushed := d.engine.PendingFrames() > 0
	d.engine.Flush()
	// A flushed partial window is a state change frame replay alone cannot
	// reproduce, so it is made durable immediately.
	if flushed && d.wal != nil {
		if err := d.Checkpoint(); err != nil {
			return nil, err
		}
	}
	out := make([]Match, 0, len(d.engine.Matches)-before)
	for _, m := range d.engine.Matches[before:] {
		out = append(out, d.convert(m))
	}
	return out, nil
}

// Stats returns the engine's operation counters.
func (d *Detector) Stats() Stats { return d.engine.Stats() }

// MonitorContext is Monitor with cancellation: it stops (returning
// ctx.Err() and the matches found so far) at the next frame boundary after
// the context is done. Use for live streams that have no natural EOF.
//
// When checkpointing is enabled, a cancelled monitor writes a final
// checkpoint before returning, so the state at the cancellation point
// survives a subsequent process exit without relying on the WAL tail
// alone.
func (d *Detector) MonitorContext(ctx context.Context, stream io.Reader) ([]Match, error) {
	matches, err := d.Monitor(&contextReader{ctx: ctx, r: stream})
	if cerr := ctx.Err(); cerr != nil && err != nil {
		if d.CheckpointingEnabled() {
			if ckErr := d.Checkpoint(); ckErr != nil {
				return matches, ckErr
			}
		}
		return matches, cerr
	}
	return matches, err
}

// contextReader fails reads once the context is done.
type contextReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *contextReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
