package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"vdsms/internal/mpeg"
	"vdsms/internal/vframe"
	"vdsms/internal/workload"
)

// Corpus geometry. A segment is exactly one basic window of
// vdsms.DefaultConfig (WindowSec 5 × KeyFPS 2), so no Monitor call ever
// flushes a partial window and a looping stream stays window-aligned.
const (
	segmentFrames = 10
	// numShorts shorts are inserted into the stream and subscribed as the
	// true queries; a -quick run makes do with quickShorts.
	numShorts   = 20
	quickShorts = 6
	// A spliced clip is spliceSlices runs of spliceRun consecutive library
	// frames, each run from a different part of the library.
	spliceSlices = 3
	spliceRun    = 8
)

// corpus is everything the program under test is given: generated MVC1
// bytes, plus the ground truth the benchmark keeps to itself.
type corpus struct {
	seed     int64
	header   []byte   // the monitored stream's MVC1 header
	segments [][]byte // header + segmentFrames I-frames each
	frames   int      // key frames across all segments
	bytes    int      // encoded bytes across all segments
	truth    []workload.Insertion
	shorts   [][]byte // true queries; shorts[i] has query id i+1
	library  [][]byte // encoded I-frames (frame header + payload) to splice from
	digest   string
}

// buildCorpus generates the seeded corpus: one monitored stream with the
// shorts inserted verbatim, cut into one-window segments, the shorts as
// true queries, and a frame library (the stream plus a second stream at
// seed+1) that spliced queries are cut from.
func buildCorpus(seed int64, shorts int) (*corpus, error) {
	wl := workload.Build(workload.Config{NumShorts: shorts, Seed: seed})
	stream, err := encode(wl.Stream, wl.Cfg.Quality)
	if err != nil {
		return nil, err
	}
	spans, err := mpeg.Frames(stream)
	if err != nil {
		return nil, fmt.Errorf("walking the stream: %w", err)
	}
	c := &corpus{seed: seed, header: stream[:mpeg.HeaderBytes]}
	frameAt := func(data []byte, s mpeg.FrameSpan) []byte {
		return data[s.Off : s.Off+mpeg.FrameHeaderBytes+s.PayloadLen]
	}
	// The tail that does not fill a window is dropped; inserts that would
	// lose frames go with it (the generator ends on a gap, so none do).
	nseg := len(spans) / segmentFrames
	c.frames = nseg * segmentFrames
	for s := 0; s < nseg; s++ {
		seg := append([]byte(nil), c.header...)
		for _, sp := range spans[s*segmentFrames : (s+1)*segmentFrames] {
			seg = append(seg, frameAt(stream, sp)...)
		}
		c.segments = append(c.segments, seg)
		c.bytes += len(seg)
	}
	for _, ins := range wl.Truth {
		if ins.End <= c.frames {
			c.truth = append(c.truth, ins)
		}
	}
	for _, q := range wl.Queries {
		clip, err := encode(q.Video, wl.Cfg.Quality)
		if err != nil {
			return nil, err
		}
		c.shorts = append(c.shorts, clip)
	}
	for _, sp := range spans[:c.frames] {
		c.library = append(c.library, frameAt(stream, sp))
	}
	wl2 := workload.Build(workload.Config{NumShorts: shorts, Seed: seed + 1})
	other, err := encode(wl2.Stream, wl2.Cfg.Quality)
	if err != nil {
		return nil, err
	}
	ospans, err := mpeg.Frames(other)
	if err != nil {
		return nil, fmt.Errorf("walking the library stream: %w", err)
	}
	for _, sp := range ospans {
		c.library = append(c.library, frameAt(other, sp))
	}

	h := sha256.New()
	for _, seg := range c.segments {
		h.Write(seg)
	}
	for _, q := range c.shorts {
		h.Write(q)
	}
	for _, f := range c.library[c.frames:] {
		h.Write(f)
	}
	c.digest = hex.EncodeToString(h.Sum(nil)[:8])
	return c, nil
}

// encode returns the MVC1 bytes of a video, intra-only like every other
// user of workload.Build.
func encode(src vframe.Source, quality int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := mpeg.EncodeSource(&buf, src, quality, 1); err != nil {
		return nil, fmt.Errorf("encoding: %w", err)
	}
	return buf.Bytes(), nil
}

// spliced returns the n-th spliced query: a real MVC1 clip byte-spliced
// from the library, sharing visual vocabulary with the stream without being
// a copy of any part of it. Clip n is a pure function of (seed, n), so the
// churn workload can ask for fresh ones forever. The slices are spread over
// the library's thirds so that no contiguous stretch of the stream holds
// more than one of them.
func (c *corpus) spliced(n int) []byte {
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], uint64(c.seed))
	binary.LittleEndian.PutUint64(key[8:], uint64(n))
	sum := sha256.Sum256(key[:])
	rnd := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
	clip := append([]byte(nil), c.header...)
	third := len(c.library) / spliceSlices
	for s := 0; s < spliceSlices; s++ {
		off := s*third + rnd.Intn(third-spliceRun)
		for _, f := range c.library[off : off+spliceRun] {
			clip = append(clip, f...)
		}
	}
	return clip
}
