package mpeg

import (
	"bytes"
	"io"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"vdsms/internal/bitio"
	"vdsms/internal/dct"
	"vdsms/internal/vframe"
)

func synth(n int, seed int64) vframe.Source {
	return vframe.NewSynth(vframe.SynthConfig{W: 64, H: 48, NumFrames: n, Seed: seed, FPS: 30})
}

func encode(t testing.TB, src vframe.Source, quality, gop int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := EncodeSource(&buf, src, quality, gop); err != nil {
		t.Fatalf("EncodeSource: %v", err)
	}
	return buf.Bytes()
}

func TestHeaderRoundTrip(t *testing.T) {
	h := StreamHeader{W: 352, H: 240, FPSNum: 30000, FPSDen: 1001, Quality: 75, GOP: 15}
	var buf bytes.Buffer
	if err := writeHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := readHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header round-trip: got %+v want %+v", got, h)
	}
}

func TestHeaderValidation(t *testing.T) {
	bad := []StreamHeader{
		{W: 0, H: 48, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 15},
		{W: 50, H: 48, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 15},
		{W: 64, H: 48, FPSNum: 0, FPSDen: 1, Quality: 75, GOP: 15},
		{W: 64, H: 48, FPSNum: 30, FPSDen: 1, Quality: 0, GOP: 15},
		{W: 64, H: 48, FPSNum: 30, FPSDen: 1, Quality: 101, GOP: 15},
		{W: 64, H: 48, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 0},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, h)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data := []byte("NOTAVIDEOSTREAMXXXXXXXX")
	if _, err := NewDecoder(bytes.NewReader(data)); err != ErrBadMagic {
		t.Errorf("NewDecoder on garbage = %v, want ErrBadMagic", err)
	}
	if _, err := NewPartialDecoder(bytes.NewReader(data)); err != ErrBadMagic {
		t.Errorf("NewPartialDecoder on garbage = %v, want ErrBadMagic", err)
	}
}

func TestEncodeDecodeIntraQuality(t *testing.T) {
	src := synth(5, 1)
	data := encode(t, src, 90, 1)
	frames, hdr, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.GOP != 1 || len(frames) != 5 {
		t.Fatalf("decoded %d frames, GOP %d", len(frames), hdr.GOP)
	}
	for i, f := range frames {
		if p := vframe.PSNR(src.Frame(i), f); p < 30 {
			t.Errorf("frame %d PSNR %.1f dB at quality 90, want >= 30", i, p)
		}
	}
}

func TestEncodeDecodeWithPFrames(t *testing.T) {
	src := synth(20, 2)
	data := encode(t, src, 85, 5)
	frames, _, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 20 {
		t.Fatalf("decoded %d frames, want 20", len(frames))
	}
	for i, f := range frames {
		if p := vframe.PSNR(src.Frame(i), f); p < 28 {
			t.Errorf("frame %d PSNR %.1f dB, want >= 28 (no P-frame drift)", i, p)
		}
	}
}

func TestQualityMonotonic(t *testing.T) {
	src := synth(3, 3)
	lo := encode(t, src, 20, 1)
	hi := encode(t, src, 95, 1)
	if len(hi) <= len(lo) {
		t.Errorf("quality 95 stream (%d bytes) not larger than quality 20 (%d bytes)",
			len(hi), len(lo))
	}
	fl, _, _ := DecodeAll(bytes.NewReader(lo))
	fh, _, _ := DecodeAll(bytes.NewReader(hi))
	pl := vframe.PSNR(src.Frame(0), fl[0])
	ph := vframe.PSNR(src.Frame(0), fh[0])
	if ph <= pl {
		t.Errorf("PSNR at quality 95 (%.1f) not above quality 20 (%.1f)", ph, pl)
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	src := synth(10, 4)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, StreamHeader{W: 64, H: 48, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 10})
	if err != nil {
		t.Fatal(err)
	}
	var iBytes, pBytes, pCount int
	for i := 0; i < src.Len(); i++ {
		info, err := enc.WriteFrame(src.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Key {
			iBytes += info.Bytes
		} else {
			pBytes += info.Bytes
			pCount++
		}
	}
	if pCount != 9 {
		t.Fatalf("pCount = %d", pCount)
	}
	if avgP := pBytes / pCount; avgP >= iBytes {
		t.Errorf("average P frame (%d bytes) not smaller than I frame (%d bytes)", avgP, iBytes)
	}
}

func TestFrameInfoSequence(t *testing.T) {
	src := synth(7, 5)
	data := encode(t, src, 75, 3)
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		_, info, err := dec.Next()
		if err != nil {
			t.Fatal(err)
		}
		if info.Index != i {
			t.Errorf("frame %d has Index %d", i, info.Index)
		}
		wantKey := i%3 == 0
		if info.Key != wantKey {
			t.Errorf("frame %d Key = %v, want %v", i, info.Key, wantKey)
		}
		if math.Abs(info.PTS-float64(i)/30) > 1e-12 {
			t.Errorf("frame %d PTS = %g", i, info.PTS)
		}
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestPartialDecoderDCMatchesBlockMeans(t *testing.T) {
	src := synth(6, 6)
	data := encode(t, src, 95, 3)
	dcs, hdr, err := ReadAllDC(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 { // frames 0 and 3 are I-frames
		t.Fatalf("got %d DC frames, want 2", len(dcs))
	}
	if dcs[0].Info.Index != 0 || dcs[1].Info.Index != 3 {
		t.Errorf("DC frame indexes %d, %d; want 0, 3", dcs[0].Info.Index, dcs[1].Info.Index)
	}
	bw, bh := hdr.W/8, hdr.H/8
	for _, dcf := range dcs {
		if dcf.BW != bw || dcf.BH != bh {
			t.Fatalf("grid %dx%d, want %dx%d", dcf.BW, dcf.BH, bw, bh)
		}
		orig := src.Frame(dcf.Info.Index)
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				// DC = 8 × (mean − 128); quantisation at quality 95 keeps
				// the error within a few units.
				var sum float64
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						sum += float64(orig.Y[(by*8+y)*hdr.W+bx*8+x])
					}
				}
				want := 8 * (sum/64 - 128)
				got := dcf.DC[by*bw+bx]
				if math.Abs(got-want) > 8 {
					t.Fatalf("frame %d block (%d,%d): DC %.1f, want %.1f±8",
						dcf.Info.Index, bx, by, got, want)
				}
			}
		}
	}
}

// flatSource is n frames of one colour: every block codes as a DC delta and
// an end-of-block, the shortest payload a geometry can have.
type flatSource struct {
	f *vframe.Frame
	n int
}

func newFlat(w, h, n int, luma uint8) flatSource {
	f := vframe.NewFrame(w, h)
	for i := range f.Y {
		f.Y[i] = luma
	}
	for i := range f.Cb {
		f.Cb[i], f.Cr[i] = 128, 128
	}
	return flatSource{f: f, n: n}
}

func (s flatSource) Len() int                { return s.n }
func (s flatSource) FPS() float64            { return 30 }
func (s flatSource) Frame(int) *vframe.Frame { return s.f }

// TestPartialMatchesFullDecodeDC holds the partial decoder against the full
// one across geometries and qualities, twice over: block by block its
// entropy walk (bitio's DCBlocks, one block per call) must yield the DC
// level readLevels yields and stop on the same bit, and frame by frame its
// DC grid — from the owning Next and from NextInto over one reused frame —
// must agree with the block means of the fully reconstructed pixels. The cases cover what the reader's
// paths split on: 16×16 flat frames are 11-byte payloads, so every load
// past their fourth byte is a zero-padded tail load (the format has no
// payload shorter than 8 bytes: 6 blocks of at least 14 bits); quality 100
// on noisy content writes levels whose codes outgrow the 12-bit skip table.
func TestPartialMatchesFullDecodeDC(t *testing.T) {
	noisy := func(w, h int) vframe.Source {
		return vframe.NewSynth(vframe.SynthConfig{W: w, H: h, NumFrames: 4, Seed: 7, FPS: 30})
	}
	for _, tc := range []struct {
		name         string
		src          vframe.Source
		quality, gop int
		maxPayload   int // 0: no bound
		minCodeBits  int // longest AC code (end-of-block aside) must reach this
	}{
		{"64x48-q60-gop2", synth(4, 7), 60, 2, 0, 0},
		{"16x16-flat-q50", newFlat(16, 16, 3, 128), 50, 1, 11, 0},
		{"32x16-flat-q1", newFlat(32, 16, 2, 200), 1, 2, 22, 0},
		{"16x16-q100", noisy(16, 16), 100, 1, 0, 13},
		{"96x80-q75-intra", noisy(96, 80), 75, 1, 0, 0},
		{"48x32-q100-gop3", noisy(48, 32), 100, 3, 0, 13},
		{"160x112-q5", noisy(160, 112), 5, 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := encode(t, tc.src, tc.quality, tc.gop)
			dcs, hdr, err := ReadAllDC(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			// The reusing entry point: the same frames through one DCFrame.
			pd, err := NewPartialDecoder(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var reused DCFrame
			for _, want := range dcs {
				if err := pd.NextInto(&reused); err != nil {
					t.Fatal(err)
				}
				if reused.Info != want.Info || reused.BW != want.BW || reused.BH != want.BH || !slices.Equal(reused.DC, want.DC) {
					t.Fatalf("frame %d: NextInto differs from Next", want.Info.Index)
				}
			}
			if err := pd.NextInto(&reused); err != io.EOF {
				t.Fatalf("NextInto after the last frame: %v, want io.EOF", err)
			}
			frames, _, err := DecodeAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			spans, err := Frames(data)
			if err != nil {
				t.Fatal(err)
			}
			longest := 0
			for _, dcf := range dcs {
				sp := spans[dcf.Info.Index]
				payload := data[sp.Off+FrameHeaderBytes : sp.Off+FrameHeaderBytes+sp.PayloadLen]
				if tc.maxPayload > 0 && len(payload) > tc.maxPayload {
					t.Errorf("frame %d: payload %d bytes, case wants at most %d", dcf.Info.Index, len(payload), tc.maxPayload)
				}
				// Entropy level: DCBlocks against readLevels, block by block.
				full := newBlockCoder(hdr.Quality)
				pr, fr := bitio.NewReader(payload), bitio.NewReader(payload)
				var level int32
				for b := 0; b < dcf.BW*dcf.BH; b++ {
					var lv dct.IntBlock
					if err := full.readLevels(fr, planeY, &lv); err != nil {
						t.Fatalf("frame %d block %d: readLevels: %v", dcf.Info.Index, b, err)
					}
					var delta [1]int64
					if _, err := pr.DCBlocks(delta[:], eobRun); err != nil {
						t.Fatalf("frame %d block %d: DCBlocks: %v", dcf.Info.Index, b, err)
					}
					if level += int32(delta[0]); level != lv[0] || pr.Remaining() != fr.Remaining() {
						t.Fatalf("frame %d block %d: DCBlocks level %d with %d bits left, readLevels %d with %d",
							dcf.Info.Index, b, level, pr.Remaining(), lv[0], fr.Remaining())
					}
					if want := float64(lv[0]) * float64(full.lumaQ[0]); dcf.DC[b] != want {
						t.Fatalf("frame %d block %d: DC %v, full entropy decode %v", dcf.Info.Index, b, dcf.DC[b], want)
					}
					for _, v := range lv[1:] {
						if v < 0 {
							v = -v
						}
						longest = max(longest, 2*bits.Len64(uint64(2*v))-1) // SE(v) is UE(2|v|−1) or UE(2|v|)
					}
				}
				// Pixel level: the DC grid against reconstructed block means.
				img := frames[dcf.Info.Index]
				for by := 0; by < dcf.BH; by++ {
					for bx := 0; bx < dcf.BW; bx++ {
						var sum float64
						for y := 0; y < 8; y++ {
							for x := 0; x < 8; x++ {
								sum += float64(img.Y[(by*8+y)*hdr.W+bx*8+x])
							}
						}
						fullDC := 8 * (sum/64 - 128)
						got := dcf.DC[by*dcf.BW+bx]
						// Full decode clamps pixels; allow small divergence.
						if math.Abs(got-fullDC) > 12 {
							t.Fatalf("frame %d block (%d,%d): partial DC %.1f vs full %.1f",
								dcf.Info.Index, bx, by, got, fullDC)
						}
					}
				}
			}
			if longest < tc.minCodeBits {
				t.Errorf("longest AC level code is %d bits, case wants at least %d to leave the skip table", longest, tc.minCodeBits)
			}
		})
	}
}

// TestPartialDecodeAcceptsRunOverflow pins a documented property of the
// partial path: it steps over AC codes by length and never adds the runs
// up, so a block whose runs pass position 63 — which readLevels rejects —
// is accepted as long as its codes parse and its end-of-block is found.
// The DC grid is the one the codes spell, with resync on or off, and no
// damage is counted.
func TestPartialDecodeAcceptsRunOverflow(t *testing.T) {
	hdr := StreamHeader{W: 16, H: 16, FPSNum: 2, FPSDen: 1, Quality: 75, GOP: 1}
	bw := bitio.NewWriter(64)
	for b := 0; b < 6; b++ { // 4 luma blocks, Cb, Cr
		bw.WriteSE(int64(3 + b))
		if b == 1 {
			for i := 0; i < 3; i++ { // runs 40+40+40: position 122 of 63
				bw.WriteUE(40)
				bw.WriteSE(2)
			}
		}
		bw.WriteUE(eobRun)
	}
	payload := bw.Bytes()
	var stream bytes.Buffer
	if err := writeHeader(&stream, hdr); err != nil {
		t.Fatal(err)
	}
	if err := writeFrameHeader(&stream, frameTypeI, len(payload)); err != nil {
		t.Fatal(err)
	}
	stream.Write(payload)

	if _, _, err := DecodeAll(bytes.NewReader(stream.Bytes())); err == nil || !strings.Contains(err.Error(), "AC run overflows block") {
		t.Fatalf("full decoder: %v, want the AC run overflow error", err)
	}
	q := float64(newBlockCoder(hdr.Quality).lumaQ[0])
	want := []float64{3 * q, 7 * q, 12 * q, 18 * q} // DPCM: 3, 3+4, 7+5, 12+6
	for _, resync := range []bool{false, true} {
		dec, err := NewPartialDecoder(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dec.SetResync(resync)
		dcf, err := dec.Next()
		if err != nil {
			t.Fatalf("resync=%v: %v", resync, err)
		}
		if !slices.Equal(dcf.DC, want) {
			t.Errorf("resync=%v: DC %v, want %v", resync, dcf.DC, want)
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Errorf("resync=%v: after the frame %v, want io.EOF", resync, err)
		}
		if st := dec.ResyncStats(); st != (ResyncStats{}) {
			t.Errorf("resync=%v: damage counted %+v, want none", resync, st)
		}
	}
}

func TestDecoderRejectsLeadingPFrame(t *testing.T) {
	src := synth(4, 8)
	data := encode(t, src, 75, 2)
	// Surgically remove the first (I) frame so the stream starts with a P.
	r := bytes.NewReader(data)
	hdr, _ := readHeader(r)
	_ = hdr
	typ, n, err := readFrameHeader(r, hdr, make([]byte, frameHeaderSize))
	if err != nil || typ != frameTypeI {
		t.Fatalf("setup: %v %c", err, typ)
	}
	headerEnd := len(data) - r.Len()
	bad := append([]byte{}, data[:headerSize]...)
	bad = append(bad, data[headerEnd+n:]...)
	dec, err := NewDecoder(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dec.Next(); err == nil {
		t.Error("decoding stream starting with P frame succeeded, want error")
	}
}

func TestTruncatedStream(t *testing.T) {
	src := synth(3, 9)
	data := encode(t, src, 75, 1)
	trunc := data[:len(data)-7]
	dec, err := NewDecoder(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		_, _, lastErr = dec.Next()
		if lastErr != nil {
			break
		}
	}
	if lastErr == io.EOF {
		t.Error("truncated stream decoded cleanly to io.EOF, want payload error")
	}
}

func TestPartialDecoderSkipsPCheaply(t *testing.T) {
	src := synth(30, 10)
	data := encode(t, src, 75, 30) // one I frame, 29 P frames
	pd, err := NewPartialDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := pd.Next(); err != io.EOF {
		t.Fatalf("second Next = %v, want io.EOF", err)
	}
	total := int64(len(data) - headerSize)
	if pd.BytesRead >= total/2 {
		t.Errorf("partial decoder buffered %d of %d payload bytes; P frames not skipped",
			pd.BytesRead, total)
	}
}

func TestFpsToRational(t *testing.T) {
	for _, tc := range []struct {
		fps  float64
		n, d uint32
	}{{29.97, 30000, 1001}, {25, 25, 1}, {30, 30, 1}, {12.5, 12500, 1000}} {
		n, d := fpsToRational(tc.fps)
		if n != tc.n || d != tc.d {
			t.Errorf("fpsToRational(%g) = %d/%d, want %d/%d", tc.fps, n, d, tc.n, tc.d)
		}
	}
}

func TestEncoderRejectsWrongGeometry(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, StreamHeader{W: 64, H: 48, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrong := vframe.NewFrame(32, 32)
	if _, err := enc.WriteFrame(wrong); err == nil {
		t.Error("WriteFrame with wrong geometry succeeded")
	}
}

func BenchmarkEncodeFrame(b *testing.B) {
	src := vframe.NewSynth(vframe.SynthConfig{W: 176, H: 144, NumFrames: 64, Seed: 1})
	frames := make([]*vframe.Frame, 64)
	for i := range frames {
		frames[i] = src.Frame(i).Clone()
	}
	enc, _ := NewEncoder(io.Discard, StreamHeader{W: 176, H: 144, FPSNum: 30, FPSDen: 1, Quality: 75, GOP: 15})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.WriteFrame(frames[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartialDecode: ReadAllDC over a GOP-15 clip (P frames skipped
// unread, 4 I-frames parsed) and over an intra-only clip at the benchmark
// corpus's geometry and quality, where every byte is an I-frame's.
func BenchmarkPartialDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  vframe.SynthConfig
		gop  int
	}{
		{"176x144-gop15", vframe.SynthConfig{W: 176, H: 144, NumFrames: 60, Seed: 2}, 15},
		{"96x80-intra", vframe.SynthConfig{W: 96, H: 80, NumFrames: 60, Seed: 2, FPS: 2}, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			if _, err := EncodeSource(&buf, vframe.NewSynth(bc.cfg), 75, bc.gop); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadAllDC(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullDecode(b *testing.B) {
	src := vframe.NewSynth(vframe.SynthConfig{W: 176, H: 144, NumFrames: 60, Seed: 2})
	var buf bytes.Buffer
	if _, err := EncodeSource(&buf, src, 75, 15); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAll(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPartialDecodeErrorAddress: a payload that stops parsing names the
// frame and the block (bx,by) it stopped in, whether the frame-level walk
// met the damage itself (a 64-zero run in the middle of a long payload) or
// the per-block path it hands the input's last bytes to did; with resync on
// the same frames become placeholders, one CorruptFrames each.
func TestPartialDecodeErrorAddress(t *testing.T) {
	hdr := StreamHeader{W: 64, H: 32, FPSNum: 2, FPSDen: 1, Quality: 75, GOP: 1} // 8×4 luma blocks
	payload := func(bad int, damage func(*bitio.Writer)) []byte {
		bw := bitio.NewWriter(256)
		for b := 0; b < bad; b++ {
			bw.WriteSE(int64(b%7 - 3))
			bw.WriteUE(uint64(b % 5))
			bw.WriteSE(int64(1 + b%3))
			bw.WriteUE(eobRun)
		}
		damage(bw)
		return bytes.Clone(bw.Bytes())
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"cut-short", payload(21, func(bw *bitio.Writer) { bw.WriteSE(2); bw.WriteUE(3) }),
			"mpeg: partial decode frame 1 block (5,2): bitio: unexpected end of bitstream"},
		{"zero-run", payload(12, func(bw *bitio.Writer) {
			bw.WriteSE(2)
			bw.WriteBits(0, 64)
			bw.WriteBits(0, 64)
			bw.WriteBits(^uint64(0), 64)
		}),
			"mpeg: partial decode frame 1 block (4,1): bitio: malformed Exp-Golomb code"},
	} {
		var stream bytes.Buffer
		if err := writeHeader(&stream, hdr); err != nil {
			t.Fatal(err)
		}
		good := payload(48, func(*bitio.Writer) {}) // luma and chroma
		for _, p := range [][]byte{good, tc.payload, good} {
			if err := writeFrameHeader(&stream, frameTypeI, len(p)); err != nil {
				t.Fatal(err)
			}
			stream.Write(p)
		}
		if _, _, err := ReadAllDC(bytes.NewReader(stream.Bytes())); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
		dec, err := NewPartialDecoder(bytes.NewReader(stream.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		dec.SetResync(true)
		var dcf DCFrame
		var grids []int
		for dec.NextInto(&dcf) == nil {
			grids = append(grids, len(dcf.DC))
		}
		if want := []int{32, 0, 32}; !slices.Equal(grids, want) {
			t.Errorf("%s with resync: grid sizes %v, want %v", tc.name, grids, want)
		}
		if st := dec.ResyncStats(); st != (ResyncStats{CorruptFrames: 1}) {
			t.Errorf("%s with resync: damage %+v, want one corrupt frame", tc.name, st)
		}
	}
}

// TestNextIntoAllocatesNothing: once the decoder has seen its largest frame,
// a loop over one DCFrame decodes without allocating, into the same grid.
func TestNextIntoAllocatesNothing(t *testing.T) {
	clip := encode(t, vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, NumFrames: 40, Seed: 5, FPS: 2}), 75, 1)
	twice := append(bytes.Clone(clip), clip[headerSize:]...)
	dec, err := NewPartialDecoder(bytes.NewReader(twice))
	if err != nil {
		t.Fatal(err)
	}
	var dcf DCFrame
	for i := 0; i < 40; i++ {
		if err := dec.NextInto(&dcf); err != nil {
			t.Fatal(err)
		}
	}
	grid := &dcf.DC[0]
	if n := testing.AllocsPerRun(38, func() {
		if err := dec.NextInto(&dcf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("NextInto allocates %v times per frame, want 0", n)
	}
	if &dcf.DC[0] != grid {
		t.Error("NextInto replaced a grid that was large enough")
	}
}
