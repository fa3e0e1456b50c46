package bitio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUEAdversarialValues round-trips the Exp-Golomb boundaries: every
// power-of-two edge (where the prefix length changes) up to the largest
// encodable value, 2^64-2 (v+1 must fit in 64 bits).
func TestUEAdversarialValues(t *testing.T) {
	var vals []uint64
	for i := uint(1); i < 64; i++ {
		vals = append(vals, 1<<i-2, 1<<i-1, 1<<i)
	}
	vals = append(vals, 1<<64-2) // maximum encodable
	w := NewWriter(1024)
	for _, v := range vals {
		w.WriteUE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadUE()
		if err != nil {
			t.Fatalf("ReadUE(%d): %v", want, err)
		}
		if got != want {
			t.Errorf("UE round trip = %d, want %d", got, want)
		}
	}
}

// TestSEAdversarialValues round-trips signed boundaries including the
// extremes of the H.264 mapping that still fit the UE code space.
func TestSEAdversarialValues(t *testing.T) {
	vals := []int64{0, 1, -1, 1<<62 - 1, -(1<<62 - 1), 1 << 62, -(1 << 62)}
	w := NewWriter(256)
	for _, v := range vals {
		w.WriteSE(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadSE()
		if err != nil {
			t.Fatalf("ReadSE(%d): %v", want, err)
		}
		if got != want {
			t.Errorf("SE round trip = %d, want %d", got, want)
		}
	}
}

// TestWriteBitsSingleBitWords: a full-width word with exactly one bit set,
// for every bit position — catches shift-off-by-one in either direction.
func TestWriteBitsSingleBitWords(t *testing.T) {
	w := NewWriter(1024)
	for i := uint(0); i < 64; i++ {
		w.WriteBits(1<<i, 64)
	}
	w.WriteBits(^uint64(0), 64) // all ones
	w.WriteBits(0, 64)          // all zeros
	r := NewReader(w.Bytes())
	for i := uint(0); i < 64; i++ {
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1<<i {
			t.Errorf("bit %d: read %#x, want %#x", i, got, uint64(1)<<i)
		}
	}
	for _, want := range []uint64{^uint64(0), 0} {
		got, err := r.ReadBits(64)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("read %#x, want %#x", got, want)
		}
	}
}

// TestWriteBytesRoundTrip: bulk payloads interleave with unaligned bit
// writes; both sides must align identically.
func TestWriteBytesRoundTrip(t *testing.T) {
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF}
	w := NewWriter(64)
	w.WriteBits(0b101, 3) // leave the stream unaligned
	w.WriteBytes(payload)
	w.WriteUE(42)

	r := NewReader(w.Bytes())
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("prefix = (%#x, %v)", v, err)
	}
	got, err := r.ReadBytes(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("ReadBytes = %x, want %x", got, payload)
	}
	if v, err := r.ReadUE(); err != nil || v != 42 {
		t.Errorf("suffix UE = (%d, %v), want 42", v, err)
	}
}

// TestWriteBytesEmpty: a zero-length bulk write must not force alignment
// asymmetries between writer and reader (the checkpoint codec depends on
// empty sections being true no-ops).
func TestWriteBytesEmpty(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(1, 1)
	before := w.BitLen()
	// Align happens on WriteBytes even when empty; the reader mirrors it.
	w.WriteBytes(nil)
	if w.BitLen() != before && w.BitLen() != 8 {
		t.Fatalf("BitLen after empty WriteBytes = %d", w.BitLen())
	}
	w.WriteBits(1, 1)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(1); v != 1 {
		t.Fatal("prefix bit lost")
	}
	if _, err := r.ReadBytes(0); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadBits(1); err != nil || v != 1 {
		t.Errorf("suffix bit = (%d, %v), want 1", v, err)
	}
}

// TestReadBytesPastEnd: over-long bulk reads fail cleanly, not by slicing
// out of bounds.
func TestReadBytesPastEnd(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.ReadBytes(4); err != ErrUnexpectedEOF {
		t.Errorf("ReadBytes(4) of 3 = %v, want ErrUnexpectedEOF", err)
	}
	if _, err := r.ReadBytes(-1); err == nil {
		t.Error("negative ReadBytes succeeded")
	}
}

// TestSkipGuards: counts no input can satisfy — negative, or so large that
// adding them to the cursor would wrap — fail with an error and leave the
// cursor at the end, never behind where it was.
func TestSkipGuards(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	for name, skip := range map[string]func(*Reader) error{
		"SkipBytes(-1)":      func(r *Reader) error { return r.SkipBytes(-1) },
		"SkipBytes(MinInt)":  func(r *Reader) error { return r.SkipBytes(math.MinInt) },
		"SkipBytes(MaxInt)":  func(r *Reader) error { return r.SkipBytes(math.MaxInt) },
		"SkipBytes(len+1)":   func(r *Reader) error { return r.SkipBytes(len(data) + 1) },
		"SkipBits(MaxUint)":  func(r *Reader) error { return r.SkipBits(math.MaxUint) },
		"SkipBits(MaxInt+1)": func(r *Reader) error { return r.SkipBits(math.MaxInt + 1) },
		"SkipBits(len*8)":    func(r *Reader) error { return r.SkipBits(uint(len(data) * 8)) },
		"ReadBytes(MaxInt)":  func(r *Reader) error { _, err := r.ReadBytes(math.MaxInt); return err },
	} {
		r := NewReader(data)
		if _, err := r.ReadBits(9); err != nil {
			t.Fatal(err)
		}
		if err := skip(r); err == nil {
			t.Errorf("%s succeeded", name)
		}
		if r.Remaining() != 0 || r.ByteOffset() != len(data) {
			t.Errorf("%s: cursor at byte %d with %d bits left, want parked at the end", name, r.ByteOffset(), r.Remaining())
		}
		if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
			t.Errorf("%s: read after the failure = %v, want ErrUnexpectedEOF", name, err)
		}
	}
	// The boundary itself is fine: skipping exactly what is left.
	r := NewReader(data)
	if err := r.SkipBytes(len(data)); err != nil || r.Remaining() != 0 {
		t.Errorf("SkipBytes(len) = %v with %d bits left", err, r.Remaining())
	}
	if err := r.SkipBits(0); err != nil {
		t.Errorf("SkipBits(0) at the end = %v", err)
	}
}

// TestCursorAccounting pins ByteOffset, Remaining and Align across a
// partially consumed byte: the byte being read counts as consumed.
func TestCursorAccounting(t *testing.T) {
	r := NewReader([]byte{0xAA, 0xBB, 0xCC})
	for _, step := range []struct {
		read         uint
		offset, left int
	}{{0, 0, 24}, {1, 1, 23}, {7, 1, 16}, {3, 2, 13}} {
		if _, err := r.ReadBits(step.read); err != nil {
			t.Fatal(err)
		}
		if r.ByteOffset() != step.offset || r.Remaining() != step.left {
			t.Errorf("after %d more bits: offset %d, %d left; want %d, %d",
				step.read, r.ByteOffset(), r.Remaining(), step.offset, step.left)
		}
	}
	r.Align()
	r.Align() // idempotent on a boundary
	if r.ByteOffset() != 2 || r.Remaining() != 8 {
		t.Errorf("after Align: offset %d, %d left; want 2, 8", r.ByteOffset(), r.Remaining())
	}
}

// Property: WriteBytes payloads of any content and length survive a round
// trip sandwiched between arbitrary-width bit fields.
func TestPropertyWriteBytes(t *testing.T) {
	f := func(prefix uint8, payload []byte, suffix uint16) bool {
		pw := uint(prefix%7 + 1)
		w := NewWriter(len(payload) + 8)
		w.WriteBits(uint64(prefix), pw)
		w.WriteBytes(payload)
		w.WriteBits(uint64(suffix), 16)
		r := NewReader(w.Bytes())
		p, err := r.ReadBits(pw)
		if err != nil || p != uint64(prefix)&(1<<pw-1) {
			return false
		}
		got, err := r.ReadBytes(len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			return false
		}
		s, err := r.ReadBits(16)
		return err == nil && s == uint64(suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWriterVsReference: random fields of every width, Exp-Golomb codes of
// every length (including the unencodable 2⁶⁴−1, which writes nothing),
// alignment and bulk bytes produce the bytes the bit-at-a-time writer did.
func TestWriterVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		w, ref := NewWriter(0), &refWriter{}
		for op := 0; op < 1+rng.Intn(60); op++ {
			v := rng.Uint64() >> uint(rng.Intn(64))
			switch rng.Intn(6) {
			case 0:
				n := uint(rng.Intn(65))
				w.WriteBits(v, n) // bits of v above n must be ignored
				ref.writeBits(v, n)
			case 1:
				w.WriteUE(v)
				ref.writeUE(v)
			case 2:
				top := ^uint64(0) - uint64(rng.Intn(2)) // 127 bits, or nothing at all
				w.WriteUE(top)
				ref.writeUE(top)
			case 3:
				w.WriteBit(uint(v))
				ref.writeBit(uint(v))
			case 4:
				w.Align()
				ref.align()
			default:
				p := []byte{byte(v), byte(v >> 8)}
				w.WriteBytes(p)
				ref.align()
				ref.buf = append(ref.buf, p...)
			}
			if w.BitLen() != len(ref.buf)*8+int(ref.nCur) {
				t.Fatalf("round %d op %d: BitLen %d, reference %d", round, op, w.BitLen(), len(ref.buf)*8+int(ref.nCur))
			}
		}
		ref.align()
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("round %d: bytes differ\ngot  %x\nwant %x", round, w.Bytes(), ref.buf)
		}
	}
}
