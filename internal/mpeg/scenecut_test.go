package mpeg

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"vdsms/internal/vframe"
)

// cutSource concatenates two visually distinct clips, producing a hard
// scene cut at the boundary.
func cutSource(n1, n2 int) vframe.Source {
	a := vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, NumFrames: n1, Seed: 1})
	b := vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, NumFrames: n2, Seed: 999})
	return vframe.Concat(a, b)
}

func encodeTypes(t *testing.T, src vframe.Source, gop int, sceneCut float64) []bool {
	t.Helper()
	enc, err := NewEncoder(io.Discard, StreamHeader{
		W: 96, H: 80, FPSNum: 30, FPSDen: 1, Quality: 78, GOP: gop,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc.SceneCutSAD = sceneCut
	keys := make([]bool, src.Len())
	for i := 0; i < src.Len(); i++ {
		info, err := enc.WriteFrame(src.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = info.Key
	}
	return keys
}

func TestSceneCutPromotesIFrame(t *testing.T) {
	src := cutSource(7, 7) // cut at frame 7, mid-GOP for GOP=10
	keys := encodeTypes(t, src, 10, 8)
	if !keys[0] {
		t.Fatal("first frame not I")
	}
	if !keys[7] {
		t.Error("scene cut at frame 7 not promoted to I")
	}
	// Continuous frames stay P.
	for _, i := range []int{1, 2, 3, 8, 9} {
		if keys[i] {
			t.Errorf("continuous frame %d promoted to I", i)
		}
	}
}

func TestSceneCutRestartsGOP(t *testing.T) {
	src := cutSource(5, 20)
	keys := encodeTypes(t, src, 10, 8)
	if !keys[5] {
		t.Fatal("cut frame not I")
	}
	// Next scheduled I is 10 frames after the cut, not at frame 10.
	if keys[10] {
		t.Error("GOP counter not restarted at the scene cut")
	}
	if !keys[15] {
		t.Error("scheduled I frame 10 after the cut missing")
	}
}

func TestSceneCutDisabledKeepsCadence(t *testing.T) {
	src := cutSource(5, 15)
	keys := encodeTypes(t, src, 10, 0) // feature off
	for i, k := range keys {
		want := i%10 == 0
		if k != want {
			t.Errorf("frame %d Key=%v with scene cut disabled, want %v", i, k, want)
		}
	}
}

func TestSceneCutStreamDecodes(t *testing.T) {
	src := cutSource(6, 6)
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, StreamHeader{
		W: 96, H: 80, FPSNum: 30, FPSDen: 1, Quality: 82, GOP: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc.SceneCutSAD = 8
	for i := 0; i < src.Len(); i++ {
		if _, err := enc.WriteFrame(src.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	frames, _, err := DecodeAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if p := vframe.PSNR(src.Frame(i), f); p < 26 {
			t.Errorf("frame %d PSNR %.1f after adaptive GOP", i, p)
		}
	}
	// Partial decoder sees the extra key frame.
	dcs, _, err := ReadAllDC(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	foundCut := false
	for _, d := range dcs {
		if d.Info.Index == 6 {
			foundCut = true
		}
	}
	if !foundCut {
		t.Error("partial decoder did not surface the scene-cut I frame")
	}
}

// TestDecodersSurviveCorruption flips random bits/bytes in valid streams
// and requires both decoders to fail cleanly (error, not panic) or succeed;
// corrupted video must never take the process down.
func TestDecodersSurviveCorruption(t *testing.T) {
	src := vframe.NewSynth(vframe.SynthConfig{W: 64, H: 48, NumFrames: 8, Seed: 3})
	var buf bytes.Buffer
	if _, err := EncodeSource(&buf, src, 75, 4); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), valid...)
		// Corrupt 1-4 random bytes (after the stream header so the
		// decoders get past setup most of the time).
		for n := rng.Intn(4) + 1; n > 0; n-- {
			pos := rng.Intn(len(data)-headerSize) + headerSize
			data[pos] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: full decoder panicked: %v", trial, r)
				}
			}()
			dec, err := NewDecoder(bytes.NewReader(data))
			if err != nil {
				return
			}
			for {
				if _, _, err := dec.Next(); err != nil {
					return
				}
			}
		}()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: partial decoder panicked: %v", trial, r)
				}
			}()
			pd, err := NewPartialDecoder(bytes.NewReader(data))
			if err != nil {
				return
			}
			for {
				if _, err := pd.Next(); err != nil {
					return
				}
			}
		}()
	}
}

// TestDecodersSurviveTruncationEverywhere cuts a valid stream at every
// length and requires clean failure, the same from the partial decoder
// whether its reader can seek or not.
func TestDecodersSurviveTruncationEverywhere(t *testing.T) {
	src := vframe.NewSynth(vframe.SynthConfig{W: 32, H: 32, NumFrames: 4, Seed: 5})
	var buf bytes.Buffer
	if _, err := EncodeSource(&buf, src, 75, 2); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	step := len(valid)/150 + 1
	for cut := 0; cut < len(valid); cut += step {
		data := valid[:cut]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut %d: decoder panicked: %v", cut, r)
				}
			}()
			if dec, err := NewDecoder(bytes.NewReader(data)); err == nil {
				for {
					if _, _, err := dec.Next(); err != nil {
						break
					}
				}
			}
			// The partial decoder skips P payloads by seeking where it can;
			// a plain reader must meet the cut the same way.
			var ends []string
			for _, r := range []io.Reader{bytes.NewReader(data), plainReader{bytes.NewReader(data)}} {
				pd, err := NewPartialDecoder(r)
				frames := 0
				for err == nil {
					if _, err = pd.Next(); err == nil {
						frames++
					}
				}
				ends = append(ends, fmt.Sprintf("%d frames, then %v", frames, err))
			}
			if ends[0] != ends[1] {
				t.Fatalf("cut %d: seekable reader: %s; plain reader: %s", cut, ends[0], ends[1])
			}
		}()
	}
}
