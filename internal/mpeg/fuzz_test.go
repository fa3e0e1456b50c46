package mpeg

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"vdsms/internal/vframe"
)

// seedStream builds a small valid stream used as the fuzz corpus seed.
func seedStream(tb testing.TB) []byte {
	src := vframe.NewSynth(vframe.SynthConfig{W: 32, H: 32, NumFrames: 4, Seed: 1})
	var buf bytes.Buffer
	if _, err := EncodeSource(&buf, src, 75, 2); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFullDecoder: arbitrary bytes must never panic the full decoder.
func FuzzFullDecoder(f *testing.F) {
	f.Add(seedStream(f))
	f.Add([]byte("MVC1 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 64; i++ { // bound work per input
			if _, _, err := dec.Next(); err != nil {
				return
			}
		}
	})
}

// FuzzPartialDecoder: arbitrary bytes must never panic the partial decoder,
// and decoding them a batch of n slots at a time must be decoding them one
// slot at a time (NextInto) — the same frames, placeholders, error or io.EOF,
// what one more slot after the error gives, ResyncStats, BytesRead and
// ClipFrom bytes — with resync and retention on and off. The one-slot decoder reads through a plain io.Reader, the batch
// decoder through a bytes.Reader, which skips payloads by seeking.
func FuzzPartialDecoder(f *testing.F) {
	seed := seedStream(f)
	gop := encode(f, synth(14, 61), 75, 6)
	f.Add(seed, true, false, uint8(5))
	f.Add([]byte("MVC1!!!!"), false, false, uint8(1))
	f.Add(gop, false, true, uint8(3))
	f.Add(gop[:len(gop)-7], true, true, uint8(16))
	f.Add(gop[:len(gop)-7], false, false, uint8(4))
	// A run of zero bytes in the luma codes of key frame 3 of 8: a code
	// longer than 63 bits, which fails the frame's parse mid-batch.
	broken := encode(f, synth(8, 62), 75, 1)
	spans, err := Frames(broken)
	if err != nil {
		f.Fatal(err)
	}
	clear(broken[spans[3].Off+frameHeaderSize+10:][:12])
	for _, on := range []bool{false, true} {
		f.Add(broken, on, on, uint8(7))
		f.Add(broken, !on, on, uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, retain, resync bool, batch uint8) {
		n := 1 + int(batch)%MaxBatch
		one := decodeSlots(data, retain, resync, 0)
		many := decodeSlots(data, retain, resync, n)
		if one != many {
			t.Fatalf("one slot a call:\n%s\n%d slots a call:\n%s", one, n, many)
		}
	})
}

// plainReader hides every method of its reader but Read.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// decodeSlots decodes up to 64 key-frame slots of data and describes what
// the decoder delivered and was left holding: through NextInto from a plain
// reader when batch is 0, else through NextBatch from a bytes.Reader,
// batch slots a call.
func decodeSlots(data []byte, retain, resync bool, batch int) string {
	var r io.Reader = bytes.NewReader(data)
	if batch == 0 {
		r = plainReader{r}
	}
	pd, err := NewPartialDecoder(r)
	if err != nil {
		return "header: " + err.Error()
	}
	if retain {
		pd.SetRetention(8)
	}
	pd.SetResync(resync)
	var out strings.Builder
	put := func(f *DCFrame) {
		fmt.Fprintf(&out, "%+v %dx%d %v\n", f.Info, f.BW, f.BH, f.DC)
	}
	var b Batch
	var dcf DCFrame
	for slots := 0; slots < 64; {
		if batch == 0 {
			err = pd.NextInto(&dcf)
			if err == nil {
				put(&dcf)
				slots++
			}
		} else {
			var frames []DCFrame
			frames, err = pd.NextBatch(&b, min(batch, 64-slots))
			for i := range frames {
				put(&frames[i])
			}
			slots += len(frames)
		}
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
			break
		}
	}
	if err != nil { // and the slot after the error
		var more []DCFrame
		if batch == 0 {
			if err = pd.NextInto(&dcf); err == nil {
				more = []DCFrame{dcf}
			}
		} else {
			more, err = pd.NextBatch(&b, 1)
		}
		for i := range more {
			put(&more[i])
		}
		fmt.Fprintf(&out, "then: %v\n", err)
	}
	clip, cerr := pd.ClipFrom(0)
	fmt.Fprintf(&out, "%+v read %d clip %x %v", pd.ResyncStats(), pd.BytesRead, sha256.Sum256(clip), cerr)
	return out.String()
}
