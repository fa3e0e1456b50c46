// Package snapshot defines the durable on-disk representation of a running
// detection engine: a versioned binary checkpoint of the full matching
// state (query set, candidate lists, sketches, signatures, counters) and a
// frame-granular write-ahead log of the cell ids consumed since the last
// checkpoint. Recovery is load-checkpoint + replay-WAL-tail through the
// ordinary matching kernel, and is deterministic: a restored engine emits
// exactly the matches and stats an uninterrupted run would have.
//
// The package holds only plain data and the codec; internal/core converts
// between these structs and its live engine state, so the dependency runs
// core → snapshot and the format stays testable in isolation.
//
// Checkpoint layout (bit-granular via internal/bitio, MSB-first):
//
//	magic "VCKP" | format version (16 bits) | config fingerprint (64 bits)
//	meta section | config section | engine section | FNV-1a trailer
//
// The header triple is byte-aligned and pinned by a golden test: any layout
// drift fails CI rather than corrupting user checkpoints. The fingerprint
// covers every configuration field that shapes detection state (it
// deliberately excludes worker count — parallelism is a runtime choice, and
// a checkpoint taken at one Workers value restores at any other). Loading a
// checkpoint whose fingerprint disagrees with the running configuration
// fails loudly; silent state corruption is the one unforgivable failure
// mode of a durability layer.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"vdsms/internal/bitio"
)

// Magic identifies a checkpoint stream.
var Magic = [4]byte{'V', 'C', 'K', 'P'}

// FormatVersion is the current checkpoint format version. Bump on any
// layout change; readers reject versions they do not understand.
const FormatVersion = 1

// Config holds the detection-relevant engine configuration. Every field
// participates in the fingerprint; worker count is structurally absent.
type Config struct {
	K            int
	Seed         int64
	Delta        float64
	Lambda       float64
	WindowFrames int
	Order        uint8 // 0 sequential, 1 geometric
	Method       uint8 // 0 bit, 1 sketch
	UseIndex     bool
	DisablePrune bool
}

// Meta holds pipeline-level parameters above the engine (zero for bare
// engines). They shape the cell ids the engine consumes, so a mismatch is
// as corrupting as a mismatched K.
type Meta struct {
	U      int
	D      int
	KeyFPS float64
}

// Query is one subscribed query. Queries are stored in subscription order
// so the restored query set (and its Hash-Query index) is rebuilt through
// the same insertion sequence.
type Query struct {
	ID     int
	Frames int
	Sketch []uint64
}

// Signature is one query's 2K-bit relation signature (two K-bit planes).
type Signature struct {
	QID    int
	Lo, Hi []uint64
}

// SeqCandidate is one Sequential-order candidate in canonical form: all
// per-shard slots merged, queries ascending by id.
type SeqCandidate struct {
	StartFrame int
	Windows    int
	Sketch     []uint64    // Sketch method combined sketch; nil under Bit
	Sigs       []Signature // Bit method, ascending QID
	Related    []int       // Sketch method tracked queries, ascending
	Reported   []int       // queries already reported, ascending
}

// GeoBucket is one stored Geometric-order bucket in canonical form.
type GeoBucket struct {
	StartFrame int
	EndFrame   int
	Windows    int
	Sketch     []uint64
	Sigs       []Signature
	Related    []int
}

// GeoReport is one (query, candidate start) pair already reported under
// Geometric order.
type GeoReport struct {
	QID   int
	Start int
}

// ShardStats mirrors core.ShardStats.
type ShardStats struct {
	Probed, Pruned, Compared int64
}

// Stats mirrors core.Stats (minus the Matches slice, which is delivery
// state, not matching state).
type Stats struct {
	Frames, Windows                int
	SketchCombines, SketchCompares int64
	SigOrs, SigTests               int64
	ProbeComparisons               int64
	SignatureSum, CandidateSum     int64
	Matches                        int
	Shards                         []ShardStats
}

// EngineState is the complete matching state of one engine, canonicalised:
// per-shard partitions are merged and every list is sorted, so the same
// logical state serialises to the same bytes regardless of the worker
// count that produced it.
type EngineState struct {
	Config      Config
	Frame       int
	CurIDs      []uint64
	Stats       Stats
	Queries     []Query
	Seq         []SeqCandidate
	Geo         []GeoBucket
	GeoReported []GeoReport // ascending (QID, Start)
}

// Checkpoint is the full durable unit: pipeline meta plus engine state.
type Checkpoint struct {
	Meta   Meta
	Engine EngineState
}

// Fingerprint hashes the meta and config sections with FNV-1a/64. Two
// checkpoints are state-compatible iff their fingerprints agree.
func Fingerprint(m Meta, c Config) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(m.U))
	put(uint64(m.D))
	put(math.Float64bits(m.KeyFPS))
	put(uint64(c.K))
	put(uint64(c.Seed))
	put(math.Float64bits(c.Delta))
	put(math.Float64bits(c.Lambda))
	put(uint64(c.WindowFrames))
	put(uint64(c.Order))
	put(uint64(c.Method))
	var flags uint64
	if c.UseIndex {
		flags |= 1
	}
	if c.DisablePrune {
		flags |= 2
	}
	put(flags)
	return h.Sum64()
}

// CompatibilityError reports a fingerprint mismatch field by field, so the
// operator sees exactly which knob diverged instead of a bare hash.
func CompatibilityError(have, want Meta, haveC, wantC Config) error {
	var diffs []string
	add := func(name string, h, w any) {
		if h != w {
			diffs = append(diffs, fmt.Sprintf("%s: checkpoint has %v, config has %v", name, h, w))
		}
	}
	add("U", have.U, want.U)
	add("D", have.D, want.D)
	add("KeyFPS", have.KeyFPS, want.KeyFPS)
	add("K", haveC.K, wantC.K)
	add("Seed", haveC.Seed, wantC.Seed)
	add("Delta", haveC.Delta, wantC.Delta)
	add("Lambda", haveC.Lambda, wantC.Lambda)
	add("WindowFrames", haveC.WindowFrames, wantC.WindowFrames)
	add("Order", haveC.Order, wantC.Order)
	add("Method", haveC.Method, wantC.Method)
	add("UseIndex", haveC.UseIndex, wantC.UseIndex)
	add("DisablePrune", haveC.DisablePrune, wantC.DisablePrune)
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("snapshot: checkpoint incompatible with running configuration: %v", diffs)
}

// ---------------------------------------------------------------- encoding

type encoder struct {
	w   *bitio.Writer
	buf []byte
}

func (e *encoder) bit(b bool) {
	if b {
		e.w.WriteBit(1)
	} else {
		e.w.WriteBit(0)
	}
}

func (e *encoder) ue(v uint64) { e.w.WriteUE(v) }
func (e *encoder) se(v int64)  { e.w.WriteSE(v) }
func (e *encoder) f64(v float64) {
	e.w.WriteBits(math.Float64bits(v), 64)
}

// u64s writes a word slice byte-aligned, big-endian — the bulk payload
// path. Empty slices write nothing (and force no alignment), mirroring the
// decoder's early return.
func (e *encoder) u64s(vs []uint64) {
	if len(vs) == 0 {
		return
	}
	need := 8 * len(vs)
	if cap(e.buf) < need {
		e.buf = make([]byte, need)
	}
	b := e.buf[:need]
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[i*8:], v)
	}
	e.w.WriteBytes(b)
}

func (e *encoder) sig(s Signature) {
	e.se(int64(s.QID))
	e.ue(uint64(len(s.Lo)))
	e.u64s(s.Lo)
	e.u64s(s.Hi)
}

func (e *encoder) ints(vs []int) {
	e.ue(uint64(len(vs)))
	for _, v := range vs {
		e.se(int64(v))
	}
}

func (e *encoder) sketch(s []uint64) {
	e.ue(uint64(len(s)))
	e.u64s(s)
}

// Write serialises a checkpoint to w.
func Write(w io.Writer, c *Checkpoint) error {
	_, err := w.Write(Marshal(c))
	return err
}

// Identity names a serialised checkpoint by its integrity trailer (FNV-1a
// over every byte before it). A WAL header carries the identity of the
// checkpoint the log extends, so recovery can tell "this log continues
// that checkpoint" from "this log predates it" without frame arithmetic.
// Two checkpoints share an identity only when their bytes are equal — and
// then they are the same state, so either reading of the log is correct.
func Identity(checkpoint []byte) uint64 {
	if len(checkpoint) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(checkpoint[len(checkpoint)-8:])
}

// Marshal serialises a checkpoint: the layout of the package comment, the
// trailer last (see Identity).
func Marshal(c *Checkpoint) []byte {
	bw := bitio.NewWriter(4096)
	enc := &encoder{w: bw}

	// Header: magic, version, fingerprint — byte-aligned, golden-pinned.
	bw.WriteBytes(Magic[:])
	bw.WriteBits(FormatVersion, 16)
	bw.WriteBits(Fingerprint(c.Meta, c.Engine.Config), 64)

	// Meta section.
	enc.se(int64(c.Meta.U))
	enc.se(int64(c.Meta.D))
	enc.f64(c.Meta.KeyFPS)

	// Config section.
	cfg := c.Engine.Config
	enc.ue(uint64(cfg.K))
	bw.WriteBits(uint64(cfg.Seed), 64)
	enc.f64(cfg.Delta)
	enc.f64(cfg.Lambda)
	enc.ue(uint64(cfg.WindowFrames))
	bw.WriteBits(uint64(cfg.Order), 8)
	bw.WriteBits(uint64(cfg.Method), 8)
	enc.bit(cfg.UseIndex)
	enc.bit(cfg.DisablePrune)

	// Engine section.
	st := &c.Engine
	enc.ue(uint64(st.Frame))
	enc.sketch(st.CurIDs)

	enc.ue(uint64(st.Stats.Frames))
	enc.ue(uint64(st.Stats.Windows))
	for _, v := range []int64{
		st.Stats.SketchCombines, st.Stats.SketchCompares,
		st.Stats.SigOrs, st.Stats.SigTests, st.Stats.ProbeComparisons,
		st.Stats.SignatureSum, st.Stats.CandidateSum,
	} {
		bw.WriteBits(uint64(v), 64)
	}
	enc.ue(uint64(st.Stats.Matches))
	enc.ue(uint64(len(st.Stats.Shards)))
	for _, sh := range st.Stats.Shards {
		bw.WriteBits(uint64(sh.Probed), 64)
		bw.WriteBits(uint64(sh.Pruned), 64)
		bw.WriteBits(uint64(sh.Compared), 64)
	}

	enc.ue(uint64(len(st.Queries)))
	for _, q := range st.Queries {
		enc.se(int64(q.ID))
		enc.ue(uint64(q.Frames))
		enc.sketch(q.Sketch)
	}

	enc.ue(uint64(len(st.Seq)))
	for _, cand := range st.Seq {
		enc.se(int64(cand.StartFrame))
		enc.ue(uint64(cand.Windows))
		enc.bit(cand.Sketch != nil)
		if cand.Sketch != nil {
			enc.sketch(cand.Sketch)
		}
		enc.ue(uint64(len(cand.Sigs)))
		for _, s := range cand.Sigs {
			enc.sig(s)
		}
		enc.ints(cand.Related)
		enc.ints(cand.Reported)
	}

	enc.ue(uint64(len(st.Geo)))
	for _, b := range st.Geo {
		enc.se(int64(b.StartFrame))
		enc.se(int64(b.EndFrame))
		enc.ue(uint64(b.Windows))
		enc.bit(b.Sketch != nil)
		if b.Sketch != nil {
			enc.sketch(b.Sketch)
		}
		enc.ue(uint64(len(b.Sigs)))
		for _, s := range b.Sigs {
			enc.sig(s)
		}
		enc.ints(b.Related)
	}

	enc.ue(uint64(len(st.GeoReported)))
	for _, r := range st.GeoReported {
		enc.se(int64(r.QID))
		enc.se(int64(r.Start))
	}

	// Integrity trailer: FNV-1a over every byte written so far.
	h := fnv.New64a()
	h.Write(bw.Bytes())
	var tr [8]byte
	binary.BigEndian.PutUint64(tr[:], h.Sum64())
	bw.WriteBytes(tr[:])
	return bw.Bytes()
}

// ---------------------------------------------------------------- decoding

type decoder struct {
	r *bitio.Reader
}

func (d *decoder) bit() (bool, error) {
	b, err := d.r.ReadBit()
	return b == 1, err
}

func (d *decoder) ue() (uint64, error) { return d.r.ReadUE() }

func (d *decoder) count(what string, limit uint64) (int, error) {
	v, err := d.r.ReadUE()
	if err != nil {
		return 0, fmt.Errorf("snapshot: reading %s count: %w", what, err)
	}
	if v > limit {
		return 0, fmt.Errorf("snapshot: implausible %s count %d", what, v)
	}
	return int(v), nil
}

func (d *decoder) se() (int64, error) { return d.r.ReadSE() }

func (d *decoder) f64() (float64, error) {
	v, err := d.r.ReadBits(64)
	return math.Float64frombits(v), err
}

func (d *decoder) u64s(n int) ([]uint64, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := d.r.ReadBytes(8 * n)
	if err != nil {
		return nil, err
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.BigEndian.Uint64(b[i*8:])
	}
	return vs, nil
}

func (d *decoder) sig() (Signature, error) {
	var s Signature
	qid, err := d.se()
	if err != nil {
		return s, err
	}
	n, err := d.count("signature words", 1<<20)
	if err != nil {
		return s, err
	}
	s.QID = int(qid)
	if s.Lo, err = d.u64s(n); err != nil {
		return s, err
	}
	s.Hi, err = d.u64s(n)
	return s, err
}

func (d *decoder) ints(what string) ([]int, error) {
	n, err := d.count(what, 1<<24)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	vs := make([]int, n)
	for i := range vs {
		v, err := d.se()
		if err != nil {
			return nil, err
		}
		vs[i] = int(v)
	}
	return vs, nil
}

func (d *decoder) sketch(what string) ([]uint64, error) {
	n, err := d.count(what, 1<<24)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return d.u64s(n)
}

// Read parses a checkpoint, verifying magic, version, integrity trailer and
// the internal consistency of the fingerprint.
func Read(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading checkpoint: %w", err)
	}
	if len(data) < 22 { // header 14 + trailer 8
		return nil, fmt.Errorf("snapshot: checkpoint truncated (%d bytes)", len(data))
	}
	body, tr := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := h.Sum64(), binary.BigEndian.Uint64(tr); got != want {
		return nil, fmt.Errorf("snapshot: checkpoint integrity check failed (hash %016x, trailer %016x)", got, want)
	}

	br := bitio.NewReader(body)
	d := &decoder{r: br}

	magic, err := br.ReadBytes(4)
	if err != nil || [4]byte(magic) != Magic {
		return nil, fmt.Errorf("snapshot: not a checkpoint stream (magic %q)", magic)
	}
	ver, err := br.ReadBits(16)
	if err != nil {
		return nil, err
	}
	if ver != FormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads %d)", ver, FormatVersion)
	}
	wantFP, err := br.ReadBits(64)
	if err != nil {
		return nil, err
	}

	c := &Checkpoint{}
	fail := func(what string, err error) (*Checkpoint, error) {
		return nil, fmt.Errorf("snapshot: reading %s: %w", what, err)
	}

	// Meta section.
	u, err := d.se()
	if err != nil {
		return fail("meta", err)
	}
	dd, err := d.se()
	if err != nil {
		return fail("meta", err)
	}
	fps, err := d.f64()
	if err != nil {
		return fail("meta", err)
	}
	c.Meta = Meta{U: int(u), D: int(dd), KeyFPS: fps}

	// Config section.
	var cfg Config
	k, err := d.ue()
	if err != nil {
		return fail("config", err)
	}
	seed, err := br.ReadBits(64)
	if err != nil {
		return fail("config", err)
	}
	if cfg.Delta, err = d.f64(); err != nil {
		return fail("config", err)
	}
	if cfg.Lambda, err = d.f64(); err != nil {
		return fail("config", err)
	}
	wf, err := d.ue()
	if err != nil {
		return fail("config", err)
	}
	order, err := br.ReadBits(8)
	if err != nil {
		return fail("config", err)
	}
	method, err := br.ReadBits(8)
	if err != nil {
		return fail("config", err)
	}
	if cfg.UseIndex, err = d.bit(); err != nil {
		return fail("config", err)
	}
	if cfg.DisablePrune, err = d.bit(); err != nil {
		return fail("config", err)
	}
	cfg.K, cfg.Seed = int(k), int64(seed)
	cfg.WindowFrames = int(wf)
	cfg.Order, cfg.Method = uint8(order), uint8(method)
	c.Engine.Config = cfg

	if got := Fingerprint(c.Meta, cfg); got != wantFP {
		return nil, fmt.Errorf("snapshot: header fingerprint %016x does not match config sections (%016x); checkpoint corrupt", wantFP, got)
	}

	// Engine section.
	st := &c.Engine
	frame, err := d.ue()
	if err != nil {
		return fail("frame", err)
	}
	st.Frame = int(frame)
	if st.CurIDs, err = d.sketch("current window"); err != nil {
		return fail("current window", err)
	}

	sf, err := d.ue()
	if err != nil {
		return fail("stats", err)
	}
	sw, err := d.ue()
	if err != nil {
		return fail("stats", err)
	}
	st.Stats.Frames, st.Stats.Windows = int(sf), int(sw)
	for _, dst := range []*int64{
		&st.Stats.SketchCombines, &st.Stats.SketchCompares,
		&st.Stats.SigOrs, &st.Stats.SigTests, &st.Stats.ProbeComparisons,
		&st.Stats.SignatureSum, &st.Stats.CandidateSum,
	} {
		v, err := br.ReadBits(64)
		if err != nil {
			return fail("stats", err)
		}
		*dst = int64(v)
	}
	sm, err := d.ue()
	if err != nil {
		return fail("stats", err)
	}
	st.Stats.Matches = int(sm)
	nsh, err := d.count("shard stats", 1<<16)
	if err != nil {
		return nil, err
	}
	st.Stats.Shards = make([]ShardStats, nsh)
	for i := range st.Stats.Shards {
		for _, dst := range []*int64{
			&st.Stats.Shards[i].Probed, &st.Stats.Shards[i].Pruned, &st.Stats.Shards[i].Compared,
		} {
			v, err := br.ReadBits(64)
			if err != nil {
				return fail("shard stats", err)
			}
			*dst = int64(v)
		}
	}

	nq, err := d.count("query", 1<<20)
	if err != nil {
		return nil, err
	}
	st.Queries = make([]Query, nq)
	for i := range st.Queries {
		id, err := d.se()
		if err != nil {
			return fail("query", err)
		}
		frames, err := d.ue()
		if err != nil {
			return fail("query", err)
		}
		sk, err := d.sketch("query sketch")
		if err != nil {
			return fail("query sketch", err)
		}
		st.Queries[i] = Query{ID: int(id), Frames: int(frames), Sketch: sk}
	}

	nc, err := d.count("candidate", 1<<24)
	if err != nil {
		return nil, err
	}
	st.Seq = make([]SeqCandidate, nc)
	for i := range st.Seq {
		cand := &st.Seq[i]
		start, err := d.se()
		if err != nil {
			return fail("candidate", err)
		}
		wins, err := d.ue()
		if err != nil {
			return fail("candidate", err)
		}
		cand.StartFrame, cand.Windows = int(start), int(wins)
		hasSketch, err := d.bit()
		if err != nil {
			return fail("candidate", err)
		}
		if hasSketch {
			if cand.Sketch, err = d.sketch("candidate sketch"); err != nil {
				return fail("candidate sketch", err)
			}
		}
		ns, err := d.count("candidate signature", 1<<20)
		if err != nil {
			return nil, err
		}
		if ns > 0 {
			cand.Sigs = make([]Signature, ns)
		}
		for j := range cand.Sigs {
			if cand.Sigs[j], err = d.sig(); err != nil {
				return fail("candidate signature", err)
			}
		}
		if cand.Related, err = d.ints("candidate related"); err != nil {
			return nil, err
		}
		if cand.Reported, err = d.ints("candidate reported"); err != nil {
			return nil, err
		}
	}

	nb, err := d.count("bucket", 1<<24)
	if err != nil {
		return nil, err
	}
	st.Geo = make([]GeoBucket, nb)
	for i := range st.Geo {
		b := &st.Geo[i]
		start, err := d.se()
		if err != nil {
			return fail("bucket", err)
		}
		end, err := d.se()
		if err != nil {
			return fail("bucket", err)
		}
		wins, err := d.ue()
		if err != nil {
			return fail("bucket", err)
		}
		b.StartFrame, b.EndFrame, b.Windows = int(start), int(end), int(wins)
		hasSketch, err := d.bit()
		if err != nil {
			return fail("bucket", err)
		}
		if hasSketch {
			if b.Sketch, err = d.sketch("bucket sketch"); err != nil {
				return fail("bucket sketch", err)
			}
		}
		ns, err := d.count("bucket signature", 1<<20)
		if err != nil {
			return nil, err
		}
		if ns > 0 {
			b.Sigs = make([]Signature, ns)
		}
		for j := range b.Sigs {
			if b.Sigs[j], err = d.sig(); err != nil {
				return fail("bucket signature", err)
			}
		}
		if b.Related, err = d.ints("bucket related"); err != nil {
			return nil, err
		}
	}

	nr, err := d.count("geo report", 1<<24)
	if err != nil {
		return nil, err
	}
	st.GeoReported = make([]GeoReport, nr)
	for i := range st.GeoReported {
		qid, err := d.se()
		if err != nil {
			return fail("geo report", err)
		}
		start, err := d.se()
		if err != nil {
			return fail("geo report", err)
		}
		st.GeoReported[i] = GeoReport{QID: int(qid), Start: int(start)}
	}
	return c, nil
}
