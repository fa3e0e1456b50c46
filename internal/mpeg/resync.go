package mpeg

import (
	"bytes"
	"encoding/binary"
	"io"

	"vdsms/internal/bitio"
)

// scanChunk is the refill granularity of the resync byte scan.
const scanChunk = 4096

// scanResync advances the stream past a span of garbage to the next
// position that looks like a real frame header, then repositions the
// decoder there. A candidate is a byte offset where
//
//   - the type byte is 'I' or 'P' and the length field is within the
//     geometry bound, and
//   - an I candidate's payload entropy-parses as a full luma plane
//     (the strong check: random bytes essentially never survive the
//     Exp-Golomb walk over every 8×8 block), or
//   - a P candidate's payload is followed by another plausible frame
//     header — or ends the stream exactly — since P payloads are opaque
//     to the partial decoder.
//
// Scanned-over bytes are added to rstats.SkippedBytes. A non-nil error
// means the stream ran out (or failed) before sync was found; read errors
// during the scan are treated as end of stream — except control-plane
// errors (context cancellation, deadline), which abort the scan and are
// returned verbatim.
func (d *PartialDecoder) scanResync() error {
	var (
		buf     []byte
		end     bool // underlying reader exhausted (EOF or read error)
		abort   error
		skipped int64
	)
	fill := func(need int) {
		for len(buf) < need && !end {
			tmp := make([]byte, scanChunk)
			n, err := d.r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				end = true
				if permanentReadErr(err) {
					abort = err
				}
			}
		}
	}
	for {
		fill(scanChunk)
		if abort != nil {
			d.rstats.SkippedBytes += skipped
			return abort
		}
		if len(buf) < frameHeaderSize {
			d.rstats.SkippedBytes += skipped + int64(len(buf))
			return io.EOF
		}
		for i := 0; i+frameHeaderSize <= len(buf); i++ {
			typ := buf[i]
			if typ != frameTypeI && typ != frameTypeP {
				continue
			}
			n := int(binary.BigEndian.Uint32(buf[i+1:]))
			if n > d.hdr.maxPayload() {
				continue
			}
			// Pull in the payload plus a lookahead header before validating.
			fill(i + frameHeaderSize + n + frameHeaderSize)
			if abort != nil {
				d.rstats.SkippedBytes += skipped
				return abort
			}
			if len(buf) < i+frameHeaderSize+n {
				continue // payload would run past end of stream
			}
			payload := buf[i+frameHeaderSize : i+frameHeaderSize+n]
			if typ == frameTypeI {
				if !d.plausibleIPayload(payload) {
					continue
				}
			} else {
				rest := len(buf) - (i + frameHeaderSize + n)
				switch {
				case rest == 0 && end:
					// The payload ends the stream exactly — plausible.
				case rest >= frameHeaderSize:
					nt := buf[i+frameHeaderSize+n]
					nn := int(binary.BigEndian.Uint32(buf[i+frameHeaderSize+n+1:]))
					if (nt != frameTypeI && nt != frameTypeP) || nn > d.hdr.maxPayload() {
						continue
					}
				default:
					continue // trailing partial garbage
				}
			}
			// Sync found: hand the unconsumed tail back to the stream.
			d.rstats.SkippedBytes += skipped + int64(i)
			leftover := append([]byte(nil), buf[i:]...)
			if end {
				d.r = bytes.NewReader(leftover)
			} else {
				d.r = io.MultiReader(bytes.NewReader(leftover), d.r)
			}
			return nil
		}
		if end {
			d.rstats.SkippedBytes += skipped + int64(len(buf))
			return io.EOF
		}
		// Nothing matched: all but a header-sized tail (which a future
		// refill could complete into a candidate) is confirmed garbage.
		keep := frameHeaderSize - 1
		drop := len(buf) - keep
		skipped += int64(drop)
		copy(buf, buf[drop:])
		buf = buf[:keep]
	}
}

// plausibleIPayload reports whether payload entropy-parses as a complete
// luma plane for this stream's geometry. Used only for resync candidate
// validation; the deltas it leaves behind are scratch between candidates,
// and are made on first use: a stream header alone should not cost a
// frame's worth of memory.
func (d *PartialDecoder) plausibleIPayload(payload []byte) bool {
	if d.deltas == nil {
		d.deltas = make([]int64, (d.hdr.W/8)*(d.hdr.H/8))
	}
	_, err := bitio.NewReader(payload).DCBlocks(d.deltas, eobRun)
	return err == nil
}
