package mpeg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// frameLoc is one frame's position inside an encoded stream.
type frameLoc struct {
	off int // offset of the frame header
	typ byte
	n   int // payload length
}

// frameLocs walks an intact stream's structure.
func frameLocs(t *testing.T, data []byte) []frameLoc {
	t.Helper()
	var locs []frameLoc
	off := headerSize
	for off < len(data) {
		if off+frameHeaderSize > len(data) {
			t.Fatalf("torn frame header at offset %d", off)
		}
		typ := data[off]
		n := int(binary.BigEndian.Uint32(data[off+1:]))
		locs = append(locs, frameLoc{off: off, typ: typ, n: n})
		off += frameHeaderSize + n
	}
	return locs
}

// decodeResilient drains a resync-enabled partial decoder.
func decodeResilient(t *testing.T, data []byte) ([]*DCFrame, ResyncStats) {
	t.Helper()
	dec, err := NewPartialDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewPartialDecoder: %v", err)
	}
	dec.SetResync(true)
	var out []*DCFrame
	for {
		dcf, err := dec.Next()
		if err == io.EOF {
			return out, dec.ResyncStats()
		}
		if err != nil {
			t.Fatalf("resilient Next returned an error: %v", err)
		}
		out = append(out, dcf)
	}
}

// sameDC fails unless the two frames carry identical DC grids.
func sameDC(t *testing.T, got, want *DCFrame) {
	t.Helper()
	if got.Info.Index != want.Info.Index {
		t.Fatalf("frame index %d, want %d", got.Info.Index, want.Info.Index)
	}
	if len(got.DC) != len(want.DC) {
		t.Fatalf("frame %d: DC grid %d values, want %d", want.Info.Index, len(got.DC), len(want.DC))
	}
	for i := range want.DC {
		if got.DC[i] != want.DC[i] {
			t.Fatalf("frame %d: DC[%d] = %g, want %g", want.Info.Index, i, got.DC[i], want.DC[i])
		}
	}
}

func TestResyncTypeByteCorruption(t *testing.T) {
	data := encode(t, synth(12, 41), 80, 1)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	locs := frameLocs(t, data)
	corrupt := append([]byte(nil), data...)
	corrupt[locs[5].off] = 'X'

	// Without resync, the damaged type byte is fatal.
	if _, _, err := ReadAllDC(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("strict decode of a corrupt stream succeeded")
	}

	frames, stats := decodeResilient(t, corrupt)
	if len(frames) != len(clean) {
		t.Fatalf("%d frames, want %d (cadence must survive an in-place skip)", len(frames), len(clean))
	}
	for i, f := range frames {
		if i == 5 {
			if f.DC != nil {
				t.Fatal("corrupt slot 5 has a DC grid, want a placeholder")
			}
			if f.Info.Index != 5 || !f.Info.Key {
				t.Fatalf("placeholder Info = %+v, want key frame index 5", f.Info)
			}
			continue
		}
		sameDC(t, f, clean[i])
	}
	if stats.CorruptFrames != 1 || stats.Resyncs != 0 || stats.Truncated != 0 {
		t.Fatalf("stats = %+v, want exactly one in-place corrupt frame", stats)
	}
}

func TestResyncLengthSmash(t *testing.T) {
	data := encode(t, synth(12, 42), 80, 1)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	locs := frameLocs(t, data)
	corrupt := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(corrupt[locs[4].off+1:], 0xFFFFFF00) // wildly over the bound

	if _, _, err := ReadAllDC(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("strict decode of a smashed length succeeded")
	}

	frames, stats := decodeResilient(t, corrupt)
	if stats.Resyncs == 0 {
		t.Fatalf("stats = %+v, want at least one byte-scan resync", stats)
	}
	if stats.SkippedBytes == 0 {
		t.Fatal("resync skipped zero bytes")
	}
	if len(frames) != len(clean) {
		t.Fatalf("%d frames, want %d (one hole for the lost slot)", len(frames), len(clean))
	}
	if frames[4].DC != nil {
		t.Fatal("lost slot 4 has a DC grid, want a placeholder")
	}
	for i, f := range frames {
		if i == 4 {
			continue
		}
		sameDC(t, f, clean[i])
	}
}

func TestResyncPayloadBitFlips(t *testing.T) {
	data := encode(t, synth(10, 43), 80, 1)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	locs := frameLocs(t, data)
	corrupt := append([]byte(nil), data...)
	// Pepper the middle of frame 3's payload with bit flips. The stream
	// structure (headers, lengths) is intact, so however the parse goes —
	// failure or different coefficients — the surrounding frames and the
	// cadence must be untouched.
	for i := locs[3].off + frameHeaderSize + locs[3].n/4; i < locs[3].off+frameHeaderSize+locs[3].n/2; i += 7 {
		corrupt[i] ^= 0x55
	}
	frames, stats := decodeResilient(t, corrupt)
	if len(frames) != len(clean) {
		t.Fatalf("%d frames, want %d", len(frames), len(clean))
	}
	for i, f := range frames {
		if i == 3 {
			continue // damaged content: placeholder or altered DCs, both fine
		}
		sameDC(t, f, clean[i])
	}
	if stats.Resyncs != 0 || stats.Truncated != 0 {
		t.Fatalf("stats = %+v: payload damage must not trigger resync or truncation", stats)
	}
}

func TestResyncTruncation(t *testing.T) {
	data := encode(t, synth(12, 44), 80, 1)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	locs := frameLocs(t, data)
	// Cut mid-payload of frame 7.
	cut := data[:locs[7].off+frameHeaderSize+locs[7].n/2]

	if _, _, err := ReadAllDC(bytes.NewReader(cut)); err == nil {
		t.Fatal("strict decode of a truncated stream succeeded")
	}

	frames, stats := decodeResilient(t, cut)
	if len(frames) != 7 {
		t.Fatalf("%d frames before the cut, want 7", len(frames))
	}
	for i, f := range frames {
		sameDC(t, f, clean[i])
	}
	if stats.Truncated != 1 {
		t.Fatalf("stats = %+v, want Truncated=1", stats)
	}
}

func TestResyncGOPStreamPSlotVanishes(t *testing.T) {
	data := encode(t, synth(20, 45), 80, 5)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	locs := frameLocs(t, data)
	// Corrupt the type byte of a P frame (index 7, off the GOP cadence).
	if locs[7].typ != frameTypeP {
		t.Fatalf("setup: frame 7 is %q, want P", locs[7].typ)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[locs[7].off] = 'Q'

	frames, stats := decodeResilient(t, corrupt)
	if len(frames) != len(clean) {
		t.Fatalf("%d key frames, want %d — a corrupt P slot must not surface", len(frames), len(clean))
	}
	for i, f := range frames {
		sameDC(t, f, clean[i])
	}
	if stats.CorruptFrames != 1 {
		t.Fatalf("stats = %+v, want CorruptFrames=1", stats)
	}
}

func TestShedCheckSkipsDecode(t *testing.T) {
	data := encode(t, synth(10, 46), 80, 1)
	clean, _, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewPartialDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	dec.SetShedCheck(func(payloadBytes int) bool {
		if payloadBytes <= 0 {
			t.Fatalf("shed check saw payload size %d", payloadBytes)
		}
		calls++
		return calls%2 == 0 // shed every second I frame
	})
	var frames []*DCFrame
	for {
		dcf, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, dcf)
	}
	if len(frames) != len(clean) {
		t.Fatalf("%d frames, want %d — shed frames must keep their slots", len(frames), len(clean))
	}
	for i, f := range frames {
		if i%2 == 1 { // calls are 1-based: even calls land on odd indices
			if f.DC != nil {
				t.Fatalf("shed frame %d has a DC grid", i)
			}
			if !f.Info.Key || f.Info.Index != i || f.Info.Bytes != clean[i].Info.Bytes {
				t.Fatalf("shed frame Info = %+v, want key/index %d/%d bytes", f.Info, i, clean[i].Info.Bytes)
			}
			continue
		}
		sameDC(t, f, clean[i])
	}
	if dec.BytesRead >= int64(len(data))-headerSize {
		t.Fatal("shedding read every payload byte into the decoder")
	}
}

func TestShedCheckWithRetention(t *testing.T) {
	data := encode(t, synth(8, 47), 80, 1)
	dec, err := NewPartialDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dec.SetRetention(16)
	dec.SetShedCheck(func(int) bool { return true }) // shed everything
	n := 0
	for {
		dcf, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if dcf.DC != nil {
			t.Fatal("all-shed decode produced a DC grid")
		}
		n++
	}
	if n != 8 {
		t.Fatalf("%d placeholders, want 8", n)
	}
	// Shed payloads must still be retained: the clip round-trips.
	clip, err := dec.ClipFrom(0)
	if err != nil {
		t.Fatalf("ClipFrom after shedding: %v", err)
	}
	if got, _, err := ReadAllDC(bytes.NewReader(clip)); err != nil || len(got) != 8 {
		t.Fatalf("retained clip decode = (%d frames, %v), want (8, nil)", len(got), err)
	}
}

// TestTruncatedPFrameEveryReader: a GOP stream cut inside its last P frame is
// one truncation whether the reader can seek or not — a seek past the end
// succeeds, so it is no proof that the skipped bytes are there. Without
// resync both readers fail skipping the frame; with it both end cleanly and
// count the truncation.
func TestTruncatedPFrameEveryReader(t *testing.T) {
	data := encode(t, synth(14, 61), 75, 6) // I P P P P P I … I P: frame 13 is a P
	cut := data[:len(data)-7]
	for _, resync := range []bool{false, true} {
		want := "3 frames, then mpeg: skipping P frame 13: unexpected EOF, {CorruptFrames:0 Resyncs:0 SkippedBytes:0 Truncated:0}"
		if resync {
			want = "3 frames, then EOF, {CorruptFrames:0 Resyncs:0 SkippedBytes:0 Truncated:1}"
		}
		for _, r := range []io.Reader{bytes.NewReader(cut), plainReader{bytes.NewReader(cut)}} {
			pd, err := NewPartialDecoder(r)
			if err != nil {
				t.Fatal(err)
			}
			pd.SetResync(resync)
			frames := 0
			for err == nil {
				if _, err = pd.Next(); err == nil {
					frames++
				}
			}
			if got := fmt.Sprintf("%d frames, then %v, %+v", frames, err, pd.ResyncStats()); got != want {
				t.Errorf("%T, resync %v: %s; want %s", r, resync, got, want)
			}
		}
	}
}
