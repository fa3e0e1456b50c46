// Package snapshot defines the durable on-disk representation of a running
// detection engine: a versioned binary checkpoint of the full matching
// state (query set, candidate lists, sketches, signatures, counters), a
// write-ahead log of the cell ids consumed and the subscription changes
// made since the last checkpoint, and the one query codec both use
// (queries.go). Recovery is load-checkpoint + replay-WAL-tail through the
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
// The engine section holds the frame position, the partial window, the
// counters, the plane, and the kernel: candidates, buckets and reports.
// The plane is ue(byte length) | the query codec's bytes, byte-aligned (an
// empty plane is the length 0 alone), so a query costs its cells, not its
// K sketch values.
// Version 1 stored each query as ue-coded id and length and its K raw
// sketch values; Read still reads it, to a plane of sketch-only queries,
// and the kernel sections of both versions are the same bytes.
//
// One walk over the layout (walk.checkpoint) is its only description: it
// writes each field for Marshal and reads it into place for Read, so the
// two cannot disagree. A reader stops where the layout ends: any bit after
// the last section but the last byte's zero padding is refused.
//
// The header triple is byte-aligned and pinned by a golden test: any layout
// drift fails CI rather than corrupting user checkpoints. The fingerprint
// covers every configuration field that shapes detection state. Loading a
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
	"slices"

	"vdsms/internal/bitio"
	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
)

// Magic identifies a checkpoint stream.
var Magic = [4]byte{'V', 'C', 'K', 'P'}

// FormatVersion is the current checkpoint format version. Bump on any
// layout change; readers reject versions they do not understand. Read
// takes version 1 too.
const FormatVersion = 2

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

// Signature is one query's 2K-bit relation signature (two K-bit planes).
type Signature struct {
	QID    int
	Lo, Hi []uint64
}

// SeqCandidate is one Sequential-order candidate in canonical form: queries
// ascending by id.
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

// ShardStats holds core.Stats' Probed, Pruned and Compared. Checkpoints from
// the partitioned kernel carry one entry per query shard; the engine now
// writes exactly one, and reads back the sum of however many there are.
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
// every list is sorted, so the same logical state serialises to the same
// bytes.
type EngineState struct {
	Config Config
	Frame  int
	CurIDs []uint64
	Stats  Stats
	// Queries is the plane in subscription order, so that the restored
	// query set (and its index) is rebuilt through the same insertion
	// sequence.
	Queries     []qindex.Query
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
	x := &walk{w: bitio.NewWriter(4096)}
	x.checkpoint(c)
	body := x.w.Bytes()
	h := fnv.New64a()
	h.Write(body)
	return binary.BigEndian.AppendUint64(body, h.Sum64())
}

// Read parses a checkpoint, verifying magic, version, integrity trailer,
// the internal consistency of the fingerprint, and that nothing follows
// the layout but the last byte's zero padding.
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

	c := &Checkpoint{}
	x := &walk{r: bitio.NewReader(body)}
	x.checkpoint(c)
	if left := x.r.Remaining(); x.reading() && left > 0 {
		// Eight bits or more are refused as they are; fewer are the last
		// byte's padding, which reads without fail and must be zero.
		if pad, _ := x.r.ReadBits(uint(min(left, 8))); left >= 8 || pad != 0 {
			x.err = fmt.Errorf("%d bits past the end of the layout", left)
		}
	}
	if x.err != nil {
		return nil, fmt.Errorf("snapshot: reading %s: %w", x.at, x.err)
	}
	return c, nil
}

// ------------------------------------------------------------------ layout

// walk is one pass over the checkpoint layout, the only description of it:
// with w set each step writes its field, with r set it reads the field into
// place. A read keeps its first error, after which every step does nothing
// and every count is 0, so the layout is spelled without a check per field.
type walk struct {
	w   *bitio.Writer
	r   *bitio.Reader
	err error
	at  string // the section the first error was met in
	buf []byte // a write's scratch for word slices
}

// checkpoint walks the whole layout of the package comment but the trailer.
func (x *walk) checkpoint(c *Checkpoint) {
	// Header: magic, version, fingerprint — byte-aligned, golden-pinned.
	x.section("header")
	magic, ver, fp := Magic[:], uint64(FormatVersion), uint64(0)
	if x.w != nil {
		fp = Fingerprint(c.Meta, c.Engine.Config)
	}
	x.raw(&magic, len(Magic))
	num(x, &ver, 16)
	num(x, &fp, 64)
	switch {
	case x.reading() && [4]byte(magic) != Magic:
		x.err = fmt.Errorf("not a checkpoint stream (magic %q)", magic)
	case x.reading() && ver != 1 && ver != FormatVersion:
		x.err = fmt.Errorf("unsupported format version %d (this build reads 1 and %d)", ver, FormatVersion)
	}

	x.section("meta section")
	num(x, &c.Meta.U, se)
	num(x, &c.Meta.D, se)
	x.f64(&c.Meta.KeyFPS)

	x.section("config section")
	cfg := &c.Engine.Config
	num(x, &cfg.K, ue)
	if x.reading() && uint64(cfg.K) > minhash.MaxK {
		x.err = fmt.Errorf("K=%d exceeds the limit of %d", uint64(cfg.K), minhash.MaxK)
	}
	num(x, &cfg.Seed, 64)
	x.f64(&cfg.Delta)
	x.f64(&cfg.Lambda)
	num(x, &cfg.WindowFrames, ue)
	num(x, &cfg.Order, 8)
	num(x, &cfg.Method, 8)
	x.bit(&cfg.UseIndex)
	x.bit(&cfg.DisablePrune)
	if x.reading() && Fingerprint(c.Meta, *cfg) != fp {
		x.err = fmt.Errorf("header fingerprint %016x does not match config sections; checkpoint corrupt", fp)
	}

	x.section("engine section")
	st := &c.Engine
	num(x, &st.Frame, ue)
	x.sketch(&st.CurIDs, "current window")
	num(x, &st.Stats.Frames, ue)
	num(x, &st.Stats.Windows, ue)
	for _, v := range []*int64{
		&st.Stats.SketchCombines, &st.Stats.SketchCompares,
		&st.Stats.SigOrs, &st.Stats.SigTests, &st.Stats.ProbeComparisons,
		&st.Stats.SignatureSum, &st.Stats.CandidateSum,
	} {
		num(x, v, 64)
	}
	num(x, &st.Stats.Matches, ue)
	each(x, &st.Stats.Shards, x.count(len(st.Stats.Shards), "shard stats", 1<<16, 3*64), func(sh *ShardStats) {
		num(x, &sh.Probed, 64)
		num(x, &sh.Pruned, 64)
		num(x, &sh.Compared, 64)
	})

	x.section("plane")
	x.plane(&st.Queries, ver)

	x.section("candidates")
	each(x, &st.Seq, x.count(len(st.Seq), "candidate", 1<<24, 6), func(cand *SeqCandidate) {
		num(x, &cand.StartFrame, se)
		num(x, &cand.Windows, ue)
		x.optSketch(&cand.Sketch, "candidate sketch")
		x.sigs(&cand.Sigs, "candidate signature")
		x.ints(&cand.Related, "candidate related")
		x.ints(&cand.Reported, "candidate reported")
	})
	x.section("buckets")
	each(x, &st.Geo, x.count(len(st.Geo), "bucket", 1<<24, 6), func(b *GeoBucket) {
		num(x, &b.StartFrame, se)
		num(x, &b.EndFrame, se)
		num(x, &b.Windows, ue)
		x.optSketch(&b.Sketch, "bucket sketch")
		x.sigs(&b.Sigs, "bucket signature")
		x.ints(&b.Related, "bucket related")
	})
	x.section("geo reports")
	each(x, &st.GeoReported, x.count(len(st.GeoReported), "geo report", 1<<24, 2), func(r *GeoReport) {
		num(x, &r.QID, se)
		num(x, &r.Start, se)
	})
}

// plane walks the plane section. Version 2, the one written, is the query
// codec's bytes behind their length; version 1, read only, is a count and
// per query its id, its length and its K raw sketch values. An empty plane
// reads as nil in either.
func (x *walk) plane(qs *[]qindex.Query, version uint64) {
	if version == 1 {
		each(x, qs, x.count(len(*qs), "query", 1<<20, 3), func(q *qindex.Query) {
			num(x, &q.ID, se)
			num(x, &q.Length, ue)
			x.sketch((*[]uint64)(&q.Sketch), "query sketch")
			if x.reading() && (q.Length <= 0 || q.Sketch == nil) {
				x.err = fmt.Errorf("query %d has no frames or no sketch", q.ID)
			}
		})
	} else {
		var b []byte
		if x.w != nil && len(*qs) > 0 {
			b = AppendQueries(nil, *qs)
		}
		// An empty plane forces no alignment, as in version 1.
		if n := x.count(len(b), "plane byte", 1<<40, 8); n > 0 {
			x.raw(&b, n)
			if x.reading() {
				*qs, x.err = ParseQueries(b)
			}
		}
	}
	if x.r != nil && len(*qs) == 0 {
		*qs = nil
	}
}

// section names the part of the layout a read is in, for its first error.
func (x *walk) section(name string) {
	if x.err == nil {
		x.at = name
	}
}

// reading reports whether the walk reads and has not failed: whether a
// rule of the layout is to be checked.
func (x *walk) reading() bool { return x.r != nil && x.err == nil }

// Codings of an integer field: an unsigned or a signed Exp-Golomb code;
// any other value is a width in bits.
const (
	ue = -1
	se = -2
)

// num walks an integer field in the given coding.
func num[T ~int | ~int64 | ~uint8 | ~uint64](x *walk, v *T, coding int) {
	if x.w != nil {
		switch coding {
		case ue:
			x.w.WriteUE(uint64(*v))
		case se:
			x.w.WriteSE(int64(*v))
		default:
			x.w.WriteBits(uint64(*v), uint(coding))
		}
		return
	}
	if x.err != nil {
		return
	}
	var u uint64
	switch coding {
	case ue:
		u, x.err = x.r.ReadUE()
	case se:
		var s int64
		s, x.err = x.r.ReadSE()
		u = uint64(s)
	default:
		u, x.err = x.r.ReadBits(uint(coding))
	}
	*v = T(u)
}

// f64 walks a float as its 64 bits.
func (x *walk) f64(v *float64) {
	u := math.Float64bits(*v)
	num(x, &u, 64)
	if x.r != nil {
		*v = math.Float64frombits(u)
	}
}

// bit walks a one-bit flag.
func (x *walk) bit(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	num(x, &u, 1)
	if x.r != nil {
		*v = u == 1
	}
}

// count walks the length n of a list whose items take at least minBits
// bits each. A read refuses a count above limit or above what the bits
// left can hold, so that no count sizes an allocation its input cannot
// fill; it returns 0 once the read has failed.
func (x *walk) count(n int, what string, limit uint64, minBits int) int {
	v := uint64(n)
	num(x, &v, ue)
	if x.w != nil {
		return n
	}
	if left := uint64(x.r.Remaining()); x.reading() && (v > limit || v > left/uint64(minBits)) {
		x.err = fmt.Errorf("implausible %s count %d (%d bits left)", what, v, left)
	}
	if x.err != nil {
		return 0
	}
	return int(v)
}

// each walks the items of *s, n of them on a read, which sizes *s first.
func each[T any](x *walk, s *[]T, n int, item func(*T)) {
	if x.r != nil {
		*s = make([]T, n)
	}
	for i := range *s {
		if x.err != nil {
			return
		}
		item(&(*s)[i])
	}
}

// raw walks n bytes, byte-aligned; a read's bytes alias the input.
func (x *walk) raw(b *[]byte, n int) {
	switch {
	case x.w != nil:
		x.w.WriteBytes(*b)
	case x.err == nil:
		*b, x.err = x.r.ReadBytes(n)
	}
}

// words walks n words byte-aligned, big-endian — the bulk payload path. No
// words write nothing, force no alignment, and read as nil.
func (x *walk) words(vs *[]uint64, n int) {
	if x.w != nil {
		if len(*vs) > 0 {
			x.buf = slices.Grow(x.buf[:0], 8*len(*vs))
			for _, v := range *vs {
				x.buf = binary.BigEndian.AppendUint64(x.buf, v)
			}
			x.w.WriteBytes(x.buf)
		}
		return
	}
	if n == 0 || x.err != nil {
		return
	}
	var b []byte
	x.raw(&b, 8*n)
	if x.err != nil {
		return
	}
	*vs = make([]uint64, n)
	for i := range *vs {
		(*vs)[i] = binary.BigEndian.Uint64(b[i*8:])
	}
}

// sketch walks a counted word slice: a sketch, or a window's cell ids.
func (x *walk) sketch(s *[]uint64, what string) {
	x.words(s, x.count(len(*s), what, 1<<24, 64))
}

// optSketch walks a presence bit and, when it is set, a sketch.
func (x *walk) optSketch(s *[]uint64, what string) {
	has := *s != nil
	x.bit(&has)
	if has {
		x.sketch(s, what)
	}
}

// sigs walks a counted list of signatures, nil when empty.
func (x *walk) sigs(s *[]Signature, what string) {
	if n := x.count(len(*s), what, 1<<20, 2); n > 0 {
		each(x, s, n, func(sig *Signature) {
			num(x, &sig.QID, se)
			n := x.count(len(sig.Lo), "signature words", 1<<20, 128)
			x.words(&sig.Lo, n)
			x.words(&sig.Hi, n)
		})
	}
}

// ints walks a counted list of signed integers, nil when empty.
func (x *walk) ints(s *[]int, what string) {
	if n := x.count(len(*s), what, 1<<24, 1); n > 0 {
		each(x, s, n, func(v *int) { num(x, v, se) })
	}
}
