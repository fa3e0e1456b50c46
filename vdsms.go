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
	// Workers is ignored. It set the number of goroutines that split each
	// window's queries between them, which measured slower than one on two
	// cores (DESIGN.md "Intra-stream sharding, removed"); it stays for one
	// release so that code setting it still compiles. Parallelism comes from
	// a Fleet running whole streams on every core.
	Workers int
	// CheckpointDir, when non-empty, enables crash recovery: the detector
	// keeps a checkpoint of its full matching state plus a write-ahead log
	// of the frames consumed and the queries subscribed or unsubscribed
	// since in this directory. Restart with Resume to continue exactly
	// where a crashed run stopped. One directory serves one detector
	// lineage; see DESIGN.md "Checkpoint/restore".
	CheckpointDir string
	// CheckpointEvery is the minimum wall-clock interval between periodic
	// checkpoints during Monitor (taken at basic-window boundaries). Zero
	// disables periodic checkpoints: state is then captured only when the
	// WAL outgrows the checkpoint it extends and on explicit Checkpoint
	// calls, and recovery replays the WAL from the last such point.
	CheckpointEvery time.Duration
	// SlowWindow arms the slow-window tracer: any basic window whose
	// processing exceeds this budget is reported with a per-stage latency
	// breakdown (via OnSlowWindow when set, else as one log line). Zero
	// defers to the TELEMETRY_SLOW_WINDOW environment variable; negative
	// disables tracing even when the variable is set. The natural budget
	// for live input is WindowSec — pass TELEMETRY_SLOW_WINDOW=budget for
	// exactly that. The budget is runtime-adjustable after construction via
	// Detector.SetSlowWindow (and POST /debug/slow-window on the server).
	SlowWindow time.Duration
	// TraceEvents arms decision-provenance tracing: candidate-lifecycle
	// events (born, extended, pruned, dropped, expired, reported, near_miss)
	// are journaled in a bounded process-wide ring of this many events, and
	// every emitted match gets a provenance record (see Detector.MatchRecord).
	// Zero disables tracing — the matching kernel then does no extra work at
	// all. Capacities below the default still arm tracing at the default
	// ring size.
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
	// (Config.SlowWindow or TELEMETRY_SLOW_WINDOW), receives the per-stage
	// breakdown of every basic window that exceeded it, replacing the
	// default log line. Set before monitoring.
	OnSlowWindow func(SlowWindowTrace)

	// Replayed holds the matches re-derived from the WAL tail by Resume.
	// They were (at least partially) delivered by the crashed run already —
	// recovery is at-least-once for the frames after the last checkpoint —
	// so they are reported here instead of through OnMatch.
	Replayed []Match

	// Decision-provenance state (see trace.go): the journal recorder when
	// tracing is armed, and the runtime-adjustable slow-window budget shared
	// by every engine of this detector's lineage.
	tracer  *trace.Recorder
	slowVar *core.SlowBudget

	// Adaptive-ingest state (see degrade.go): the overload controller is
	// shared across the lineage like slowVar; ovl holds this stream's
	// sampler, motion scorer and damage counters.
	ctl *degrade.Controller
	ovl *ovlState

	// Front-end state Monitor calls hand on to one another: the reused
	// buffers, the substitute cell id (a segment may open on a placeholder),
	// the stage timer — read by the overload controller's feed, so that it
	// sees full ingest latency, not just the kernel's — and the window batch.
	front frontEnd
	batch []uint64

	// perfLabel is the stream label this detector's spans and outlier
	// observations carry (resolved by armPerf from the trace stream name).
	perfLabel string

	// Checkpoint state (armed when Config.CheckpointDir is set): the open
	// log, the size of the checkpoint it extends, and when that was taken.
	wal       *snapshot.WAL
	ckptBytes int64
	lastCkpt  time.Time

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
// pipeline.next carries from key frame to key frame: the buffers every frame
// is decoded and extracted into, the cell id that stands in for a frame with
// nothing to extract, and Monitor's two additions — the shed hook and the
// stage timer. The zero value is ready to use.
type frontEnd struct {
	dcf  mpeg.DCFrame // the frame last decoded; its grid is reused
	buf  []float64    // the feature vector, then CellInto's scratch
	last uint64       // the most recent extracted cell id
	// shed, when set, is asked about every decoded frame and answers true to
	// skip its extraction.
	shed  func(*mpeg.DCFrame) bool
	timer frontEndTimer
}

// next is the one path from MVC1 bytes to cell ids, shared by Monitor,
// PushSegment and AddQuery: it decodes pd's next key frame into fe's grid
// and returns its grid-pyramid cell id, allocating nothing from the second
// frame on. A frame with nothing to extract — a placeholder (lost to
// corruption, or shed before decoding) or one the shed hook gives up —
// repeats the most recent extracted id, which keeps the window cadence the
// matcher expects. io.EOF is the clean end of the stream.
func (p pipeline) next(pd *mpeg.PartialDecoder, fe *frontEnd) (uint64, error) {
	var tDec, tExt time.Time
	if fe.timer.active {
		tDec = time.Now()
	}
	if err := pd.NextInto(&fe.dcf); err != nil {
		return 0, err
	}
	if fe.timer.active {
		tExt = time.Now()
	}
	if len(fe.dcf.DC) > 0 && (fe.shed == nil || !fe.shed(&fe.dcf)) {
		if fe.buf == nil {
			fe.buf = make([]float64, 2*p.pt.D)
		}
		vec, scratch := fe.buf[:p.pt.D], fe.buf[p.pt.D:]
		fe.last = p.pt.CellInto(p.ex.VectorInto(vec, &fe.dcf), scratch)
	}
	if fe.timer.active {
		fe.timer.add(tExt.Sub(tDec), time.Since(tExt))
	}
	return fe.last, nil
}

// cells runs next to the end of pd's stream.
func (p pipeline) cells(pd *mpeg.PartialDecoder) ([]uint64, error) {
	fe := new(frontEnd)
	out := make([]uint64, 0, 16)
	for {
		id, err := p.next(pd, fe)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
}

// queryCells decodes query clip id to the cell ids of its key frames.
func (p pipeline) queryCells(id int, clip io.Reader) ([]uint64, error) {
	pd, err := mpeg.NewPartialDecoder(clip)
	var cells []uint64
	if err == nil {
		cells, err = p.cells(pd)
	}
	if err != nil {
		return nil, fmt.Errorf("vdsms: decoding query %d: %w", id, err)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("vdsms: query %d has no key frames", id)
	}
	return cells, nil
}

// batchCells is queryCells over a batch of clips.
func (p pipeline) batchCells(ids []int, clips []io.Reader) ([][]uint64, error) {
	if len(ids) != len(clips) {
		return nil, fmt.Errorf("vdsms: AddQueries: %d ids but %d clips", len(ids), len(clips))
	}
	cellIDs := make([][]uint64, len(clips))
	for i, clip := range clips {
		cells, err := p.queryCells(ids[i], clip)
		if err != nil {
			return nil, err
		}
		cellIDs[i] = cells
	}
	return cellIDs, nil
}

// checkKeyRate rejects a stream whose key-frame rate is too far from the
// configured one for window durations to mean what they say.
func (c Config) checkKeyRate(hdr mpeg.StreamHeader) error {
	keyRate := hdr.FPS() / float64(hdr.GOP)
	if keyRate < c.KeyFPS*0.8 || keyRate > c.KeyFPS*1.25 {
		return fmt.Errorf("vdsms: stream key-frame rate %.2f/s incompatible with configured %.2f/s",
			keyRate, c.KeyFPS)
	}
	return nil
}

// NewDetector validates cfg and builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	if cfg.WindowSec <= 0 {
		return nil, fmt.Errorf("vdsms: WindowSec %g must be positive", cfg.WindowSec)
	}
	if cfg.KeyFPS <= 0 {
		return nil, fmt.Errorf("vdsms: KeyFPS %g must be positive", cfg.KeyFPS)
	}
	ex, err := feature.NewExtractor(feature.Config{D: cfg.D})
	if err != nil {
		return nil, err
	}
	pt, err := partition.New(cfg.U, cfg.D, partition.GridPyramid)
	if err != nil {
		return nil, err
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
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, pipeline: pipeline{ex: ex, pt: pt}, engine: eng, winKeyF: winKeyF}
	eng.OnMatch = d.forward
	d.armSlowWindow(eng)
	d.armTrace(eng)
	d.armOverload(eng)
	d.armPerf(eng)
	return d, nil
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
// new detector shares this detector's runtime-adjustable slow-window
// budget, so one POST /debug/slow-window reaches every stream.
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
	nd := &Detector{cfg: ncfg, pipeline: d.pipeline, engine: eng, winKeyF: d.winKeyF,
		slowVar: d.slowVar, ctl: d.ctl}
	eng.OnMatch = nd.forward
	nd.armSlowWindow(eng)
	nd.armTrace(eng)
	nd.armOverload(eng)
	nd.armPerf(eng)
	return nd, nil
}

// SaveQueries serialises the subscribed queries (ids, lengths, sketches)
// so a monitor can restart — or fan out to other processes — without
// re-decoding the query videos. Load with LoadDetector.
func (d *Detector) SaveQueries(w io.Writer) error {
	return d.engine.Queries().Save(w)
}

// LoadDetector builds a detector from cfg with its query set restored from
// a SaveQueries stream. cfg.K and cfg.Seed must match the values used when
// the queries were subscribed (the sketches embed the hash family).
func LoadDetector(cfg Config, r io.Reader) (*Detector, error) {
	d, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	qs, err := core.LoadQuerySet(r)
	if err != nil {
		return nil, err
	}
	if qs.K() != cfg.K {
		return nil, fmt.Errorf("vdsms: saved query set has K=%d, config has K=%d", qs.K(), cfg.K)
	}
	eng, err := core.NewEngineWith(d.engine.Config(), qs)
	if err != nil {
		return nil, err
	}
	d.engine = eng
	eng.OnMatch = d.forward
	d.armSlowWindow(eng)
	d.armTrace(eng)
	d.armOverload(eng)
	d.armPerf(eng)
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
	cells, err := d.pipeline.queryCells(id, clip)
	if err != nil {
		return err
	}
	return d.subscribe([]int{id}, [][]uint64{cells})
}

// AddQueries subscribes a batch of continuous queries from encoded MVC1
// clips in one bulk operation: clips are decoded, then the whole batch
// joins the query index as one plane version, copied once rather than
// once per insert. Either every query lands or none does, in memory and
// (one WAL record, one fsync) on disk.
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
	if err := d.applyAdd(ids, cells); err != nil {
		return err
	}
	return d.compactIfOutgrown()
}

// applyAdd is the engine call behind a subscription, live or replayed: one
// query is inserted into the index, several rebuild it in bulk.
func (d *Detector) applyAdd(ids []int, cells [][]uint64) error {
	if len(ids) == 1 {
		return d.engine.AddQuery(ids[0], cells[0])
	}
	return d.engine.AddQueries(ids, cells)
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

// QueryIDs returns the subscribed query ids (unordered) — after Resume,
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
		// Declare the basic-window cadence so decode shedding runs under the
		// per-window budget (the phase accounts for a window left half-filled
		// by the previous Monitor call).
		o.sampler.SetWindow(d.winKeyF, d.engine.PendingFrames()%d.winKeyF)
		pd.SetShedCheck(func(payloadBytes int) bool {
			keep := o.sampler.KeepDecode(ctl.Level(), payloadBytes)
			if !keep {
				o.decodeShed.Add(1)
				telShedDecode.Inc()
				perfobs.DefaultOutliers.ObserveShed(d.perfLabel, 1)
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
	// Decoded cell ids are pushed in batches aligned to basic-window
	// boundaries: the engine processes each window at exactly the same
	// stream position as per-frame pushing would (so match latency and
	// archival state are unchanged) while the per-frame call overhead is
	// amortised.
	room := d.winKeyF - d.engine.PendingFrames()
	if d.batch == nil {
		d.batch = make([]uint64, 0, d.winKeyF)
	}
	batch := d.batch[:0] // never outgrows a window
	// Front-end stage timing (decode, extract) aggregates per basic window
	// to match the matching-kernel stages' granularity. When the overload
	// controller is armed, the timer also runs so the controller sees full
	// ingest latency (the engine only knows its own kernel time).
	fe := &d.front.timer
	*fe = newFrontEndTimer(d.winKeyF)
	fe.eng = d.engine
	if d.ctl != nil || d.engine.PerfArmed() {
		fe.active = true
	}
	for {
		id, err := d.pipeline.next(pd, &d.front)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, id)
		if d.curPD != nil {
			d.keyMap = append(d.keyMap, d.front.dcf.Info.Index)
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
	}
	fe.flush()
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
