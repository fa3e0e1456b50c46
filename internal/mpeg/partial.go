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
	r       io.Reader
	hdr     StreamHeader
	qdc     float64 // luma DC quantiser step
	count   int
	payload []byte
	deltas  []int64               // one frame's DC deltas, reused (see walkLuma)
	fhdr    [frameHeaderSize]byte // a frame header's bytes, reused
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

// retainFrame buffers one frame's payload under the retention policy.
func (d *PartialDecoder) retainFrame(typ byte, data []byte) {
	if d.retainN <= 0 {
		return
	}
	d.retained = append(d.retained, retainedFrame{
		index: d.count,
		typ:   typ,
		data:  append([]byte(nil), data...),
	})
	if excess := len(d.retained) - d.retainN; excess > 0 {
		d.retained = d.retained[excess:]
	}
}

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
// (length 0, storage kept).
func (d *PartialDecoder) NextInto(dcf *DCFrame) error {
	for {
		typ, n, err := readFrameHeader(d.r, d.hdr, d.fhdr[:])
		if err != nil {
			if err == io.EOF {
				return io.EOF
			}
			if !d.resync || permanentReadErr(err) {
				return err
			}
			switch {
			case errors.Is(err, io.ErrUnexpectedEOF):
				// Torn frame header: the stream ends mid-header.
				d.rstats.Truncated++
				return io.EOF
			case errors.Is(err, errUnknownFrameType) && n <= d.hdr.maxPayload():
				// Damaged type byte but a readable length: skip the frame
				// in place — stream position and frame cadence survive.
				if derr := d.discard(n); derr != nil {
					if permanentReadErr(derr) {
						return derr
					}
					d.rstats.Truncated++
					return io.EOF
				}
				d.rstats.CorruptFrames++
				if d.holeSlot(dcf, n) {
					return nil
				}
				continue
			default:
				// Implausible length field or unreadable header bytes:
				// frame sync is lost — scan forward for the next
				// independently decodable frame.
				if serr := d.scanResync(); serr != nil {
					if permanentReadErr(serr) {
						return serr
					}
					d.rstats.Truncated++
					return io.EOF
				}
				d.rstats.Resyncs++
				d.rstats.CorruptFrames++
				if d.holeSlot(dcf, 0) {
					return nil
				}
				continue
			}
		}
		if typ == frameTypeP {
			if d.retainN > 0 {
				if err := d.buffer(n); err != nil {
					if d.resync {
						d.rstats.Truncated++
						return io.EOF
					}
					return fmt.Errorf("mpeg: buffering P frame %d: %w", d.count, err)
				}
				d.retainFrame(frameTypeP, d.payload)
			} else if err := d.discard(n); err != nil {
				if d.resync && !permanentReadErr(err) {
					d.rstats.Truncated++
					return io.EOF
				}
				return fmt.Errorf("mpeg: skipping P frame %d: %w", d.count, err)
			}
			d.count++
			continue
		}
		// I frame. Shedding is decided on the compressed size alone, before
		// any payload byte is entropy-decoded.
		if d.shedCheck != nil && d.shedCheck(n) {
			if d.retainN > 0 {
				if err := d.buffer(n); err != nil {
					if d.resync {
						d.rstats.Truncated++
						return io.EOF
					}
					return fmt.Errorf("mpeg: buffering shed I frame %d: %w", d.count, err)
				}
				d.retainFrame(frameTypeI, d.payload)
			} else if err := d.discard(n); err != nil {
				if d.resync && !permanentReadErr(err) {
					d.rstats.Truncated++
					return io.EOF
				}
				return fmt.Errorf("mpeg: skipping shed I frame %d: %w", d.count, err)
			}
			d.placeholder(dcf, n)
			d.count++
			return nil
		}
		if err := d.buffer(n); err != nil {
			if d.resync {
				d.rstats.Truncated++
				return io.EOF
			}
			return fmt.Errorf("mpeg: reading I frame %d payload: %w", d.count, err)
		}
		d.BytesRead += int64(n)
		if perr := d.parseIDC(dcf, n); perr != nil {
			if !d.resync {
				return perr
			}
			// The payload was fully read, so the stream position is intact;
			// only this frame's content is damaged. Substitute a placeholder
			// (the corrupt bytes are not retained — a clip built from them
			// would not decode).
			d.rstats.CorruptFrames++
			d.placeholder(dcf, n)
			d.count++
			return nil
		}
		d.retainFrame(frameTypeI, d.payload)
		d.count++
		return nil
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

// buffer reads n payload bytes into the scratch buffer, which grows with a
// quarter to spare: frame sizes wander, and an exact fit would be outgrown
// by every new largest frame.
func (d *PartialDecoder) buffer(n int) error {
	if cap(d.payload) < n {
		d.payload = make([]byte, n, n+n/4)
	}
	d.payload = d.payload[:n]
	_, err := io.ReadFull(d.r, d.payload)
	return err
}

// parseIDC parses the luma portion of the I-frame payload sitting in
// d.payload into dcf: one pass of the entropy walk collects the DC deltas
// (AC codes are stepped over by length, chroma is never touched), a second
// sums and dequantises them. Unlike readLevels the walk does not check that
// the runs stay inside a block's 63 AC positions: a payload whose runs
// overflow still parses as long as its codes do. It touches no stream bytes
// — the caller has already buffered the payload — so a parse failure leaves
// the decoder positioned at the next frame header.
func (d *PartialDecoder) parseIDC(dcf *DCFrame, n int) error {
	blocks := d.frameInfo(dcf, n)
	if b, err := d.walkLuma(d.payload); err != nil {
		return fmt.Errorf("mpeg: partial decode frame %d block (%d,%d): %w",
			d.count, b%dcf.BW, b/dcf.BW, err)
	}
	if cap(dcf.DC) < blocks {
		dcf.DC = make([]float64, blocks)
	}
	dcf.DC = dcf.DC[:blocks]
	level := int32(0) // DPCM predictor, reset at every frame
	for i, delta := range d.deltas {
		level += int32(delta)
		dcf.DC[i] = float64(level) * d.qdc
	}
	// Chroma blocks remain unparsed: the payload is length-prefixed, so the
	// next frame header is found by position, not by parsing.
	return nil
}

// walkLuma entropy-walks an I-frame payload's luma plane into d.deltas and
// returns the number of blocks that parsed. The buffer is made on first use:
// a stream header alone should not cost a frame's worth of memory.
func (d *PartialDecoder) walkLuma(payload []byte) (int, error) {
	if d.deltas == nil {
		d.deltas = make([]int64, (d.hdr.W/8)*(d.hdr.H/8))
	}
	return bitio.NewReader(payload).DCBlocks(d.deltas, eobRun)
}

// discard consumes n payload bytes without retaining them.
func (d *PartialDecoder) discard(n int) error {
	if s, ok := d.r.(io.Seeker); ok {
		_, err := s.Seek(int64(n), io.SeekCurrent)
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
