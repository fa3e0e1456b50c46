package mpeg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"vdsms/internal/bitio"
	"vdsms/internal/dct"
)

// permanentReadErr reports reader failures that resync must never absorb:
// context cancellation and deadline expiry are control-plane signals aimed
// at the consumer, not stream damage, so converting them into a clean EOF
// would silently swallow a shutdown request.
func permanentReadErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// DCFrame is the output of partial decoding: the dequantised luma DC
// coefficients of one I-frame arranged as a BW×BH grid (one value per 8×8
// block). A DC value equals 8 × (block mean − 128); the feature extractor
// normalises per frame so the affine scaling is immaterial. A placeholder —
// a key-frame slot lost to corruption or shed before decoding — has an empty
// grid.
type DCFrame struct {
	Info   FrameInfo
	BW, BH int
	DC     []float64 // row-major, len BW*BH; empty in a placeholder
}

// PartialDecoder extracts DC coefficients of I-frames without
// reconstructing pixels. P frames are skipped at the cost of a buffered
// read; within an I-frame only the luma entropy codes are parsed — DC deltas
// decoded and applied, AC run-level codes stepped over by length alone
// (bitio.Reader.SkipRunLevels) — and the chroma payload is never touched.
// This is the compressed-domain fast path of paper Section III.A.
type PartialDecoder struct {
	r      io.Reader
	hdr    StreamHeader
	qdc    float64 // luma DC quantiser step
	count  int
	err    error                 // the parse failure that ended the decoder (see NextBatch)
	one    *Batch                // NextInto's batch of one, made on first use
	deltas []int64               // resync's candidate check's DC deltas (see plausibleIPayload)
	fhdr   [frameHeaderSize]byte // a frame header's bytes, reused
	// BytesRead accumulates the number of I-frame payload bytes read into
	// memory for parsing, for instrumentation.
	BytesRead int64

	// Retention (optional): raw payloads of the most recent frames, kept so
	// matched stream segments can be archived as standalone clips — the
	// paper's "only store the video sequences which are relevant to the
	// queries". When retention is off, P frames are skipped without
	// buffering.
	retainN  int
	retained []retainedFrame

	// Fault tolerance (optional): when resync is on, corrupt frames are
	// skipped or substituted instead of erroring, and truncation becomes a
	// clean end of stream. See SetResync.
	resync bool
	rstats ResyncStats

	// Load shedding (optional): consulted before an I-frame's payload is
	// entropy-decoded. See SetShedCheck.
	shedCheck func(payloadBytes int) bool
}

// ResyncStats counts the damage a resync-enabled decoder has absorbed.
type ResyncStats struct {
	CorruptFrames int64 // frame slots skipped or substituted due to corruption
	Resyncs       int64 // byte-scan recoveries after losing frame sync
	SkippedBytes  int64 // bytes discarded while scanning for sync
	Truncated     int64 // early stream ends converted to clean EOF
}

// retainedFrame is one buffered compressed frame.
type retainedFrame struct {
	index int
	typ   byte
	data  []byte
}

// NewPartialDecoder reads the stream header from r.
func NewPartialDecoder(r io.Reader) (*PartialDecoder, error) {
	hdr, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return &PartialDecoder{r: r, hdr: hdr, qdc: float64(dct.ScaleQuant(&dct.LumaQuant, hdr.Quality)[0])}, nil
}

// Header returns the stream parameters.
func (d *PartialDecoder) Header() StreamHeader { return d.hdr }

// SetRetention keeps the raw compressed payloads of the most recent n
// frames (all types) so ClipFrom can reconstruct matched segments. n <= 0
// disables retention. Retaining forces P-frame payloads to be buffered
// instead of skipped.
func (d *PartialDecoder) SetRetention(n int) {
	d.retainN = n
	if n <= 0 {
		d.retained = nil
	}
}

// SetResync toggles fault-tolerant decoding. With resync on, Next never
// returns a corruption error: a frame with a damaged type byte but readable
// length is skipped in place; a frame header whose length field is
// implausible (or unparseable garbage) triggers a byte scan forward to the
// next independently decodable frame; a truncated stream ends with a clean
// io.EOF. Damaged key-frame slots are reported as placeholder DCFrames with
// an empty DC grid so consumers keep their frame cadence and can substitute.
// ResyncStats reports what was absorbed.
func (d *PartialDecoder) SetResync(on bool) { d.resync = on }

// ResyncStats returns the damage counters accumulated so far.
func (d *PartialDecoder) ResyncStats() ResyncStats { return d.rstats }

// SetShedCheck installs a load-shedding predicate consulted before each
// I-frame's payload is entropy-decoded. When it returns true the payload is
// consumed without decoding and Next returns a placeholder DCFrame with an
// empty DC grid (the frame header fields are still populated). nil disables
// shedding.
func (d *PartialDecoder) SetShedCheck(fn func(payloadBytes int) bool) { d.shedCheck = fn }

// ClipFrom assembles a standalone MVC1 clip of the retained frames
// covering stream frame index from (and everything retained after it). The
// clip starts at the newest retained I-frame at or before from — or the
// oldest retained I-frame if from precedes retention — so it is
// independently decodable. Returns an error when nothing suitable is
// retained.
func (d *PartialDecoder) ClipFrom(from int) ([]byte, error) {
	start := -1
	for i, rf := range d.retained {
		if rf.typ != frameTypeI {
			continue
		}
		if rf.index <= from || start == -1 {
			start = i
		}
		if rf.index > from {
			break
		}
	}
	if start == -1 {
		return nil, fmt.Errorf("mpeg: no I frame retained at or before frame %d", from)
	}
	var buf bytes.Buffer
	if err := writeHeader(&buf, d.hdr); err != nil {
		return nil, err
	}
	for _, rf := range d.retained[start:] {
		if err := writeFrameHeader(&buf, rf.typ, len(rf.data)); err != nil {
			return nil, err
		}
		if _, err := buf.Write(rf.data); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// Next returns the DC grid of the next I-frame, skipping any intervening P
// frames. io.EOF signals a clean end of stream. The returned DCFrame owns
// its DC slice; NextInto is the same decode into a frame the caller reuses.
//
// With SetResync on, damaged input never surfaces as an error: key-frame
// slots lost to corruption or shedding come back as placeholder DCFrames
// with a nil DC grid, and truncation ends the stream with a clean io.EOF.
func (d *PartialDecoder) Next() (*DCFrame, error) {
	dcf := new(DCFrame)
	if err := d.NextInto(dcf); err != nil {
		return nil, err
	}
	return dcf, nil
}

// NextInto is Next into a caller-owned frame: every field of dcf is
// overwritten and the storage of dcf.DC is reused when it is large enough,
// so a loop over one DCFrame decodes without allocating. The grid is valid
// until the next call with the same frame; a placeholder leaves it empty
// (length 0, storage kept). It is NextBatch of one slot.
func (d *PartialDecoder) NextInto(dcf *DCFrame) error {
	if d.one == nil {
		d.one = new(Batch)
	}
	d.one.frames[0] = *dcf // decode into dcf's storage
	frames, err := d.NextBatch(d.one, 1)
	if len(frames) == 1 {
		*dcf = frames[0]
	}
	d.one.frames[0] = DCFrame{}
	return err
}

// MaxBatch is the most key-frame slots one NextBatch call decodes: one
// pass of bitio's group kernel.
const MaxBatch = bitio.GroupLanes

// A Batch is what NextBatch decodes into: up to MaxBatch key-frame slots and
// the storage their payloads are read and walked in. The zero value is ready
// to use. Storage grows on first use and is kept, so a Batch reused across
// calls — and across the decoders of one consumer's successive segments —
// decodes without allocating. The frames NextBatch returns are valid until
// the next call with the same Batch.
type Batch struct {
	frames  [MaxBatch]DCFrame
	slots   [MaxBatch]slot
	lanes   [MaxBatch]bitio.Lane
	read    int     // slots read by this call
	done    int     // slots delivered; those from done to read wait for the walk
	waiting int     // lanes in use: the waiting slots with a payload to walk
	payload []byte  // the waiting slots' I-frame payloads, end to end
	deltas  []int64 // one frame's DC deltas a lane
}

// slot is how a key-frame slot was read: a placeholder is final, a payload
// to walk is delivered once its lane has been walked.
type slot struct {
	walk   bool
	off, n int // the payload's span in Batch.payload
	lane   int // its lane in Batch.lanes
	rec    int // its reserved record in retained, or −1
}

// NextBatch decodes up to n (at most MaxBatch) key-frame slots into b and
// returns them; fewer only together with the error that ended the batch —
// io.EOF at a clean end of stream. It reads the slots' frames first, with
// P frames skipped, shed checks, resync, retention and errors exactly as n
// calls of NextInto would meet them, then walks the luma planes of all the
// I-frame payloads in one call (bitio.DCBlocksGroup), then delivers the
// slots in order. (With retention on, a retained record that would push out
// one a waiting slot may still need walks the waiting slots first, so a
// batch of a stream with P frames can take more than one walk.)
//
// A payload that fails to parse ends the batch at its slot unless resync
// is on, and it ends the decoder: the slots read after it are lost, and
// this call and every later one return the parse error. The failed frame
// counts in BytesRead, is not retained, and its index is not consumed — as
// NextInto leaves the decoder at that error.
func (d *PartialDecoder) NextBatch(b *Batch, n int) ([]DCFrame, error) {
	if d.err != nil {
		return nil, d.err
	}
	n = min(n, MaxBatch)
	b.read, b.done, b.waiting = 0, 0, 0
	b.payload = b.payload[:0]
	var err error
	for b.read < n && err == nil {
		var s slot
		if s, err = d.readSlot(b, &b.frames[b.read], n-b.read); err == nil {
			b.slots[b.read] = s
			b.read++
		}
	}
	if d.err == nil {
		d.walk(b)
	}
	if d.err != nil {
		// A parse failure comes before whatever error ended reading.
		return b.frames[:b.done], d.err
	}
	return b.frames[:b.read], err
}

// walk entropy-walks the luma planes of the waiting slots' payloads, one
// lane each, in one bitio.DCBlocksGroup call, and delivers the waiting
// slots in order. A payload that fails to parse without resync stops
// delivery at its slot and sets d.err.
func (d *PartialDecoder) walk(b *Batch) {
	blocks := (d.hdr.W / 8) * (d.hdr.H / 8)
	if b.waiting > 0 {
		if len(b.deltas) < b.waiting*blocks {
			b.deltas = make([]int64, b.waiting*blocks)
		}
		for _, s := range b.slots[b.done:b.read] {
			if s.walk {
				l := &b.lanes[s.lane]
				l.R.Reset(b.payload[s.off : s.off+s.n])
				l.Deltas = b.deltas[s.lane*blocks : (s.lane+1)*blocks]
			}
		}
		bitio.DCBlocksGroup(b.lanes[:b.waiting], eobRun)
		b.grids(blocks)
	}

	removed := 0 // records of frames that failed to parse, dropped from retained
	for ; b.done < b.read; b.done++ {
		s, f := b.slots[b.done], &b.frames[b.done]
		if !s.walk {
			continue
		}
		d.BytesRead += int64(s.n)
		l := &b.lanes[s.lane]
		if l.Err != nil {
			err := fmt.Errorf("mpeg: partial decode frame %d block (%d,%d): %w",
				f.Info.Index, l.N%f.BW, l.N/f.BW, l.Err)
			if !d.resync {
				if s.rec >= 0 {
					d.retained = d.retained[:s.rec-removed]
				}
				d.count = f.Info.Index
				d.trimRetained()
				d.err = err
				return
			}
			// The payload was fully read, so the stream position is intact;
			// only this frame's content is damaged. Substitute a placeholder
			// (the corrupt bytes are not retained — a clip built from them
			// would not decode).
			d.rstats.CorruptFrames++
			f.DC = f.DC[:0]
			if s.rec >= 0 {
				d.retained = append(d.retained[:s.rec-removed], d.retained[s.rec-removed+1:]...)
				removed++
			}
			continue
		}
		payload := b.payload[s.off : s.off+s.n]
		if s.rec >= 0 {
			d.retained[s.rec-removed].data = append([]byte(nil), payload...)
		}
		f.DC = f.DC[:blocks]
		level := int32(0) // DPCM predictor, reset at every frame
		for i, delta := range l.Deltas {
			level += int32(delta)
			f.DC[i] = float64(level) * d.qdc
		}
		// Chroma blocks remain unparsed: the payload is length-prefixed, so
		// the next frame header is found by position, not by parsing.
	}
	b.waiting = 0
	b.payload = b.payload[:0]
	d.trimRetained()
}

// grids makes sure the waiting frames walked whole have room for a grid of
// blocks values: those that lack it share one new allocation.
func (b *Batch) grids(blocks int) {
	short := func(k int) bool {
		s := b.slots[k]
		return s.walk && b.lanes[s.lane].Err == nil && cap(b.frames[k].DC) < blocks
	}
	n := 0
	for k := b.done; k < b.read; k++ {
		if short(k) {
			n++
		}
	}
	if n == 0 {
		return
	}
	grid := make([]float64, n*blocks)
	for k := b.done; k < b.read; k++ {
		if short(k) {
			b.frames[k].DC, grid = grid[:0:blocks], grid[blocks:]
		}
	}
}

// readSlot reads frames up to and including the next key-frame slot and
// stamps dcf with its info: a placeholder is final, an I-frame payload is
// appended to b.payload, which holds left slots from this one on, and
// takes the next lane. An error — io.EOF at a clean end — means the stream
// yields no further slot.
func (d *PartialDecoder) readSlot(b *Batch, dcf *DCFrame, left int) (slot, error) {
	for {
		typ, n, err := readFrameHeader(d.r, d.hdr, d.fhdr[:])
		if err != nil {
			if err == io.EOF {
				return slot{}, io.EOF
			}
			if !d.resync || permanentReadErr(err) {
				return slot{}, err
			}
			switch {
			case errors.Is(err, io.ErrUnexpectedEOF):
				// Torn frame header: the stream ends mid-header.
				d.rstats.Truncated++
				return slot{}, io.EOF
			case errors.Is(err, errUnknownFrameType) && n <= d.hdr.maxPayload():
				// Damaged type byte but a readable length: skip the frame
				// in place — stream position and frame cadence survive.
				if derr := d.discard(n); derr != nil {
					if permanentReadErr(derr) {
						return slot{}, derr
					}
					d.rstats.Truncated++
					return slot{}, io.EOF
				}
				d.rstats.CorruptFrames++
				if d.holeSlot(dcf, n) {
					return slot{rec: -1}, nil
				}
				continue
			default:
				// Implausible length field or unreadable header bytes:
				// frame sync is lost — scan forward for the next
				// independently decodable frame.
				if serr := d.scanResync(); serr != nil {
					if permanentReadErr(serr) {
						return slot{}, serr
					}
					d.rstats.Truncated++
					return slot{}, io.EOF
				}
				d.rstats.Resyncs++
				d.rstats.CorruptFrames++
				if d.holeSlot(dcf, 0) {
					return slot{rec: -1}, nil
				}
				continue
			}
		}
		if typ == frameTypeP {
			if err := d.skip(b, frameTypeP, n); err != nil {
				if d.resync && !permanentReadErr(err) {
					d.rstats.Truncated++
					return slot{}, io.EOF
				}
				return slot{}, fmt.Errorf("mpeg: %s P frame %d: %w", d.skipVerb(), d.count, err)
			}
			d.count++
			continue
		}
		// I frame. Shedding is decided on the compressed size alone, before
		// any payload byte is entropy-decoded.
		if d.shedCheck != nil && d.shedCheck(n) {
			if err := d.skip(b, frameTypeI, n); err != nil {
				if d.resync && !permanentReadErr(err) {
					d.rstats.Truncated++
					return slot{}, io.EOF
				}
				return slot{}, fmt.Errorf("mpeg: %s shed I frame %d: %w", d.skipVerb(), d.count, err)
			}
			d.placeholder(dcf, n)
			d.count++
			return slot{rec: -1}, nil
		}
		off := len(b.payload)
		if err := b.readPayload(d.r, n, left); err != nil {
			if d.resync {
				d.rstats.Truncated++
				return slot{}, io.EOF
			}
			return slot{}, fmt.Errorf("mpeg: reading I frame %d payload: %w", d.count, err)
		}
		s := slot{walk: true, off: off, n: n, lane: b.waiting, rec: -1}
		b.waiting++
		if d.retainN > 0 {
			// Reserved now, so that records stay in stream order; filled, or
			// dropped, when the frame is delivered. Nothing is trimmed while
			// it waits (see retain).
			s.rec = len(d.retained)
			d.retained = append(d.retained, retainedFrame{index: d.count, typ: frameTypeI})
		}
		d.frameInfo(dcf, n)
		d.count++
		return s, nil
	}
}

// skip consumes the payload of a frame that is not walked: it is read and
// retained under the retention policy, or skipped without buffering.
func (d *PartialDecoder) skip(b *Batch, typ byte, n int) error {
	if d.retainN <= 0 {
		return d.discard(n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(d.r, data); err != nil {
		return err
	}
	d.retain(b, retainedFrame{index: d.count, typ: typ, data: data})
	return d.err
}

// retain appends the record of a frame that is not walked and keeps the
// retainN most recent records. While slots wait for the walk their
// reserved records are not counted, and nothing is trimmed: a waiting
// frame that fails to parse is dropped, or leaves the records before it as
// the retention NextInto would hold. So a record that would make room by
// pushing one out walks the waiting slots first. Retention thus holds at
// most retainN payloads, beside at most MaxBatch empty reservations.
func (d *PartialDecoder) retain(b *Batch, rf retainedFrame) {
	if b.waiting > 0 && len(d.retained) >= d.retainN+b.waiting {
		if d.walk(b); d.err != nil {
			return
		}
	}
	d.retained = append(d.retained, rf)
	if b.waiting == 0 {
		d.trimRetained()
	}
}

// skipVerb names what skip does with a payload, for its errors.
func (d *PartialDecoder) skipVerb() string {
	if d.retainN > 0 {
		return "buffering"
	}
	return "skipping"
}

// trimRetained drops all but the retainN most recent retained frames.
func (d *PartialDecoder) trimRetained() {
	if excess := len(d.retained) - d.retainN; excess > 0 && d.retainN > 0 {
		d.retained = d.retained[excess:]
	}
}

// frameInfo stamps dcf with the position and geometry of the I-frame slot
// at the current position and returns its grid size.
func (d *PartialDecoder) frameInfo(dcf *DCFrame, payloadBytes int) int {
	dcf.Info = FrameInfo{
		Index: d.count,
		Key:   true,
		PTS:   float64(d.count) / d.hdr.FPS(),
		Bytes: payloadBytes,
	}
	dcf.BW, dcf.BH = d.hdr.W/8, d.hdr.H/8
	return dcf.BW * dcf.BH
}

// placeholder makes dcf the stand-in (empty DC grid) for the I-frame slot at
// the current position. The caller advances d.count.
func (d *PartialDecoder) placeholder(dcf *DCFrame, payloadBytes int) {
	d.frameInfo(dcf, payloadBytes)
	dcf.DC = dcf.DC[:0]
}

// holeSlot accounts one corrupt frame slot of unknown type. When the slot
// falls on the stream's key-frame cadence it makes dcf a placeholder and
// reports true, so the consumer keeps its frame cadence; P-slots vanish
// silently. The cadence test is positional (index mod GOP) — exact for the
// GOP=1 streams the monitor ingests, best-effort when an encoder inserted
// scene-cut I-frames off the cadence.
func (d *PartialDecoder) holeSlot(dcf *DCFrame, payloadBytes int) bool {
	idx := d.count
	key := d.hdr.GOP == 1 || idx%d.hdr.GOP == 0
	if key {
		d.placeholder(dcf, payloadBytes)
	}
	d.count++
	return key
}

// batchSpare is the most readPayload reserves for the slots after the one
// it reads.
const batchSpare = 1 << 20

// readPayload appends the next n payload bytes of r to b.payload, which
// holds left slots from this one on. When it has to grow, it doubles, or
// makes room for left payloads of this size with a quarter to spare,
// whichever is more: frame sizes wander, and an exact fit would be outgrown
// by every new largest batch. But n is only what a frame header claims
// until the bytes arrive, so the room for the later slots is at most
// batchSpare: a batch reserves a claimed length once, as NextInto does.
func (b *Batch) readPayload(r io.Reader, n, left int) error {
	off := len(b.payload)
	if cap(b.payload)-off < n {
		want := off + n + n/4 + min((left-1)*(n+n/4), batchSpare)
		grown := make([]byte, off, max(2*cap(b.payload), want))
		copy(grown, b.payload)
		b.payload = grown
	}
	b.payload = b.payload[:off+n]
	if _, err := io.ReadFull(r, b.payload[off:]); err != nil {
		b.payload = b.payload[:off]
		return err
	}
	return nil
}

// discard consumes n payload bytes without retaining them. A stream that
// ends inside them is io.ErrUnexpectedEOF whatever the reader: a seeker,
// which seeks past its end without complaint, reads the last byte to
// confirm it is there.
func (d *PartialDecoder) discard(n int) error {
	if s, ok := d.r.(io.Seeker); ok && n > 0 {
		if _, err := s.Seek(int64(n-1), io.SeekCurrent); err != nil {
			return err
		}
		_, err := io.ReadFull(d.r, d.fhdr[:1])
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	m, err := io.CopyN(io.Discard, d.r, int64(n))
	if err == io.EOF && m < int64(n) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAllDC partially decodes an entire stream, returning one DCFrame per
// I-frame.
func ReadAllDC(r io.Reader) ([]*DCFrame, StreamHeader, error) {
	dec, err := NewPartialDecoder(r)
	if err != nil {
		return nil, StreamHeader{}, err
	}
	var out []*DCFrame
	for {
		dcf, err := dec.Next()
		if err == io.EOF {
			return out, dec.Header(), nil
		}
		if err != nil {
			return nil, StreamHeader{}, err
		}
		out = append(out, dcf)
	}
}
