// Package mpeg implements "MVC1", a from-scratch MPEG-like video codec used
// as the compressed-video substrate for copy detection. It provides:
//
//   - an encoder producing a bitstream of intra (I) and predicted (P)
//     frames: 8×8 DCT, quantisation, zig-zag scan, DC DPCM and run-level
//     Exp-Golomb entropy coding, organised in GOPs;
//   - a full decoder that reconstructs every frame; and
//   - a partial decoder that parses the bitstream but recovers only the DC
//     coefficients of I-frames — the fast compressed-domain path the paper's
//     feature extraction relies on (Section III.A: "partially decode
//     incoming video bit streams to DC sequence").
//
// The paper evaluated MPEG-1 clips; MVC1 mirrors the structural properties
// that matter for the reproduction (I-frames carrying independently decodable
// DC terms, cheap P-frame skipping) without the licensing- and
// table-heavy parts of a standard codec.
package mpeg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic identifies an MVC1 stream.
var Magic = [4]byte{'M', 'V', 'C', '1'}

// Frame type tags in the per-frame header.
const (
	frameTypeI = 'I'
	frameTypeP = 'P'
)

// ErrBadMagic is returned when a stream does not start with the MVC1 magic.
var ErrBadMagic = errors.New("mpeg: not an MVC1 stream")

// StreamHeader carries the per-stream parameters written ahead of the first
// frame.
type StreamHeader struct {
	W, H    int // frame dimensions, multiples of 16
	FPSNum  uint32
	FPSDen  uint32
	Quality int // 1..100
	GOP     int // I-frame interval; 1 = intra-only
}

// FPS returns the frame rate as a float.
func (h StreamHeader) FPS() float64 { return float64(h.FPSNum) / float64(h.FPSDen) }

// Validate checks structural invariants of the header.
func (h StreamHeader) Validate() error {
	if h.W <= 0 || h.H <= 0 || h.W%16 != 0 || h.H%16 != 0 {
		return fmt.Errorf("mpeg: dimensions %dx%d must be positive multiples of 16", h.W, h.H)
	}
	// 4096×4096 comfortably covers real content while keeping a corrupt
	// header from demanding gigabyte frame buffers.
	if h.W > 4096 || h.H > 4096 {
		return fmt.Errorf("mpeg: dimensions %dx%d too large", h.W, h.H)
	}
	if h.FPSNum == 0 || h.FPSDen == 0 {
		return errors.New("mpeg: zero frame rate")
	}
	if h.Quality < 1 || h.Quality > 100 {
		return fmt.Errorf("mpeg: quality %d out of [1,100]", h.Quality)
	}
	if h.GOP < 1 || h.GOP > 255 {
		return fmt.Errorf("mpeg: GOP %d out of [1,255]", h.GOP)
	}
	return nil
}

// headerSize is the encoded size of the stream header in bytes.
const headerSize = 4 + 2 + 2 + 4 + 4 + 1 + 1

func writeHeader(w io.Writer, h StreamHeader) error {
	if err := h.Validate(); err != nil {
		return err
	}
	var buf [headerSize]byte
	copy(buf[:4], Magic[:])
	binary.BigEndian.PutUint16(buf[4:], uint16(h.W))
	binary.BigEndian.PutUint16(buf[6:], uint16(h.H))
	binary.BigEndian.PutUint32(buf[8:], h.FPSNum)
	binary.BigEndian.PutUint32(buf[12:], h.FPSDen)
	buf[16] = uint8(h.Quality)
	buf[17] = uint8(h.GOP)
	_, err := w.Write(buf[:])
	return err
}

func readHeader(r io.Reader) (StreamHeader, error) {
	var buf [headerSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return StreamHeader{}, fmt.Errorf("mpeg: reading stream header: %w", err)
	}
	if [4]byte(buf[:4]) != Magic {
		return StreamHeader{}, ErrBadMagic
	}
	h := StreamHeader{
		W:       int(binary.BigEndian.Uint16(buf[4:])),
		H:       int(binary.BigEndian.Uint16(buf[6:])),
		FPSNum:  binary.BigEndian.Uint32(buf[8:]),
		FPSDen:  binary.BigEndian.Uint32(buf[12:]),
		Quality: int(buf[16]),
		GOP:     int(buf[17]),
	}
	if err := h.Validate(); err != nil {
		return StreamHeader{}, err
	}
	return h, nil
}

// frameHeaderSize is the per-frame header: 1 type byte + 4 length bytes.
const frameHeaderSize = 5

func writeFrameHeader(w io.Writer, typ byte, payloadLen int) error {
	var buf [frameHeaderSize]byte
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:], uint32(payloadLen))
	_, err := w.Write(buf[:])
	return err
}

// maxPayload bounds a frame payload against the stream geometry: even a
// pathological frame cannot legitimately need more than a few bytes per
// pixel, so corrupt length fields are rejected before any allocation.
func (h StreamHeader) maxPayload() int { return h.W*h.H*8 + 4096 }

// Sentinel causes of frame-header rejection. The resync path in
// PartialDecoder distinguishes them: a bad type byte with a plausible
// length can be skipped in place, anything else means frame sync is lost.
var (
	errUnknownFrameType = errors.New("mpeg: unknown frame type")
	errPayloadBound     = errors.New("mpeg: frame payload exceeds bound")
)

// readFrameHeader returns (type, payloadLen), reading through buf, which
// must hold frameHeaderSize bytes (a caller-owned buffer: one declared here
// would escape to the heap through r, once per frame). io.EOF signals a
// clean end of stream at a frame boundary. On a validation error the parsed
// fields are still returned so a resilient caller can decide how to recover.
func readFrameHeader(r io.Reader, h StreamHeader, buf []byte) (byte, int, error) {
	buf = buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("mpeg: reading frame header: %w", err)
	}
	typ := buf[0]
	n := int(binary.BigEndian.Uint32(buf[1:]))
	if typ != frameTypeI && typ != frameTypeP {
		return typ, n, fmt.Errorf("%w %q", errUnknownFrameType, typ)
	}
	if n > h.maxPayload() {
		return typ, n, fmt.Errorf("%w: %d bytes over the %d-byte limit", errPayloadBound, n, h.maxPayload())
	}
	return typ, n, nil
}

// HeaderBytes is the encoded size of the stream header; FrameHeaderBytes
// the encoded size of a per-frame header. Exported for tooling that works
// on raw encoded streams (fault injection, stream surgery).
const (
	HeaderBytes      = headerSize
	FrameHeaderBytes = frameHeaderSize
)

// FrameSpan locates one frame inside an intact encoded stream: its frame
// header starts at Off, the payload of PayloadLen bytes follows the header.
type FrameSpan struct {
	Off        int
	Type       byte // 'I' or 'P'
	PayloadLen int
}

// Frames walks an encoded stream's structure and returns every frame's
// position. The fault-injection tooling uses it to aim damage at specific
// frames; it is not a decoder and reads no payload bytes. On structural
// damage it returns the spans walked before the damage together with the
// error, so callers can still address the intact prefix.
func Frames(data []byte) ([]FrameSpan, error) {
	if len(data) < headerSize {
		return nil, io.ErrUnexpectedEOF
	}
	if [4]byte(data[:4]) != Magic {
		return nil, ErrBadMagic
	}
	var spans []FrameSpan
	off := headerSize
	for off < len(data) {
		if off+frameHeaderSize > len(data) {
			return spans, fmt.Errorf("mpeg: torn frame header at offset %d", off)
		}
		typ := data[off]
		if typ != frameTypeI && typ != frameTypeP {
			return spans, fmt.Errorf("%w %q at offset %d", errUnknownFrameType, typ, off)
		}
		n := int(binary.BigEndian.Uint32(data[off+1:]))
		if off+frameHeaderSize+n > len(data) {
			return spans, fmt.Errorf("mpeg: frame payload at offset %d runs past end of stream", off)
		}
		spans = append(spans, FrameSpan{Off: off, Type: typ, PayloadLen: n})
		off += frameHeaderSize + n
	}
	return spans, nil
}

// FrameInfo describes a decoded frame's position in the stream.
type FrameInfo struct {
	Index int     // 0-based frame number
	Key   bool    // true for I-frames
	PTS   float64 // presentation time in seconds
	Bytes int     // compressed payload size
}
