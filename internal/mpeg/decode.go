package mpeg

import (
	"fmt"
	"io"

	"vdsms/internal/bitio"
	"vdsms/internal/dct"
	"vdsms/internal/vframe"
)

// Decoder reconstructs every frame of an MVC1 stream.
type Decoder struct {
	r       io.Reader
	hdr     StreamHeader
	coder   *blockCoder
	prev    *vframe.Frame // reference: previously decoded frame
	cur     *vframe.Frame // frame being decoded
	count   int
	payload []byte
	fhdr    [frameHeaderSize]byte
}

// NewDecoder reads the stream header from r and returns a decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	hdr, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return &Decoder{
		r:     r,
		hdr:   hdr,
		coder: newBlockCoder(hdr.Quality),
		prev:  vframe.NewFrame(hdr.W, hdr.H),
		cur:   vframe.NewFrame(hdr.W, hdr.H),
	}, nil
}

// Header returns the stream parameters.
func (d *Decoder) Header() StreamHeader { return d.hdr }

// Next decodes and returns the next frame. The returned frame is an
// internal buffer invalidated by later Next calls; Clone it to retain.
// io.EOF signals a clean end of stream.
func (d *Decoder) Next() (*vframe.Frame, FrameInfo, error) {
	typ, n, err := readFrameHeader(d.r, d.hdr, d.fhdr[:])
	if err != nil {
		return nil, FrameInfo{}, err
	}
	if cap(d.payload) < n {
		d.payload = make([]byte, n)
	}
	d.payload = d.payload[:n]
	if _, err := io.ReadFull(d.r, d.payload); err != nil {
		return nil, FrameInfo{}, fmt.Errorf("mpeg: reading frame %d payload: %w", d.count, err)
	}
	intra := typ == frameTypeI
	if !intra && d.count == 0 {
		return nil, FrameInfo{}, fmt.Errorf("mpeg: stream starts with a P frame")
	}
	br := bitio.NewReader(d.payload)
	d.coder.resetPredictors()

	var field []motionVector
	mbW := d.hdr.W / 16
	if !intra {
		field, err = readMotionField(br, mbW*(d.hdr.H/16))
		if err != nil {
			return nil, FrameInfo{}, fmt.Errorf("mpeg: frame %d motion field: %w", d.count, err)
		}
	}

	var decodeErr error
	forEachPlane(d.cur, d.prev, func(plane int, cur, ref []uint8, stride, bw, bh int) {
		if decodeErr != nil {
			return
		}
		h := bh * 8
		var spatial dct.Block
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				if err := d.coder.decodeBlock(br, plane, &spatial); err != nil {
					decodeErr = fmt.Errorf("mpeg: frame %d plane %d block (%d,%d): %w",
						d.count, plane, bx, by, err)
					return
				}
				if intra {
					storeBlock(cur, stride, bx, by, &spatial)
				} else {
					mv := blockMV(field, mbW, plane, bx, by)
					addResidualMC(cur, ref, stride, h, bx, by, mv, &spatial)
				}
			}
		}
	})
	if decodeErr != nil {
		return nil, FrameInfo{}, decodeErr
	}
	info := FrameInfo{
		Index: d.count,
		Key:   intra,
		PTS:   float64(d.count) / d.hdr.FPS(),
		Bytes: n,
	}
	d.count++
	d.prev, d.cur = d.cur, d.prev
	return d.prev, info, nil
}

// DecodeAll fully decodes a stream into memory. Intended for short clips
// and tests.
func DecodeAll(r io.Reader) ([]*vframe.Frame, StreamHeader, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, StreamHeader{}, err
	}
	var frames []*vframe.Frame
	for {
		f, _, err := dec.Next()
		if err == io.EOF {
			return frames, dec.Header(), nil
		}
		if err != nil {
			return nil, StreamHeader{}, err
		}
		frames = append(frames, f.Clone())
	}
}
