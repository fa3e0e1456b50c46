package bitio

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// testEOB is the end marker the codec uses (mpeg.eobRun).
const testEOB = 63

// walkBlocks parses data as a sequence of blocks — a signed DC delta, then
// run/level codes up to the end marker — until the first error, with the
// kernel and with the oracle, and requires the same DC deltas, the same
// error-or-not and the same final bit position from both.
func walkBlocks(t *testing.T, data []byte) {
	t.Helper()
	r, ref := NewReader(data), &refReader{data: data}
	for block := 0; ; block++ {
		got, gotErr := r.ReadSE()
		want, wantErr := ref.readSE()
		if gotErr == nil && wantErr == nil {
			if got != want {
				t.Fatalf("block %d: DC delta %d, oracle %d", block, got, want)
			}
			gotErr, wantErr = r.SkipRunLevels(testEOB), ref.skipRunLevels(testEOB)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("block %d: error %v, oracle %v", block, gotErr, wantErr)
		}
		if pos := len(data)*8 - r.Remaining(); pos != ref.bitPos() {
			t.Fatalf("block %d (err %v): bit position %d, oracle %d", block, gotErr, pos, ref.bitPos())
		}
		if gotErr != nil {
			return
		}
	}
}

// blockPayload entropy-codes nBlocks blocks the way mpeg.writeLevels does:
// short codes mostly, levels up to maxLevel so that codes longer than the
// 12-bit table prefix occur, including levels whose code equals the end
// marker's.
func blockPayload(rng *rand.Rand, nBlocks int, maxLevel int64) []byte {
	w := NewWriter(1024)
	for b := 0; b < nBlocks; b++ {
		w.WriteSE(rng.Int63n(41) - 20)
		for zz := 1; zz < 64; {
			run := rng.Intn(8)
			if rng.Intn(6) == 0 {
				run = rng.Intn(63)
			}
			if zz += run; zz >= 64 {
				break
			}
			level := rng.Int63n(2*maxLevel+1) - maxLevel
			switch {
			case rng.Intn(16) == 0:
				level = 32 // SE(32) is UE(63): the end marker's bits in level position
			case level == 0:
				level = 1
			}
			w.WriteUE(uint64(run))
			w.WriteSE(level)
			zz++
		}
		w.WriteUE(testEOB)
	}
	return bytes.Clone(w.Bytes())
}

// straddle returns a payload whose first end marker starts 2*pairs bits
// after a DC delta of 1, 3 or 5 bits (every code has odd length, so these
// reach every offset a marker can start at). Stepping pairs moves the
// 13-bit marker across the 8-byte load boundary and, since the one-bit
// filler codes retire 12 per lookup, across every position of the table's
// prefix. A second block follows so a marker consumed short or long shows.
func straddle(dc int64, pairs int) []byte {
	w := NewWriter(32)
	w.WriteSE(dc)
	for i := 0; i < pairs; i++ {
		w.WriteUE(0) // run 0, level code 0: never written by the encoder, legal to skip
		w.WriteUE(0)
	}
	w.WriteUE(testEOB)
	w.WriteSE(7)
	w.WriteUE(5)
	w.WriteSE(-900)
	w.WriteUE(testEOB)
	return bytes.Clone(w.Bytes())
}

// iframeBlocks is the number of blocks in the testdata I-frame: 12×10 luma
// and 2×(6×5) chroma.
const iframeBlocks = 180

// realIFrame is the payload of one I-frame of the benchmark corpus's stream
// (96×80, quality 75), as mpeg.EncodeSource wrote it.
func realIFrame(tb testing.TB) []byte {
	tb.Helper()
	h, err := os.ReadFile("testdata/iframe_96x80_q75.hex")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := hex.DecodeString(strings.Join(strings.Fields(string(h)), ""))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func skipSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(14))
	frame := realIFrame(tb)
	seeds := [][]byte{
		{},
		bytes.Repeat([]byte{0x00}, 24),
		bytes.Repeat([]byte{0xFF}, 24),
		frame,
		blockPayload(rng, 3, 1<<40),              // codes longer than one 57-bit load
		append([]byte{0x80}, make([]byte, 8)...), // a 64-zero run after one code
		append([]byte{0xFF, 0xFE}, make([]byte, 9)...),
	}
	for cut := 1; cut <= 16; cut++ {
		seeds = append(seeds, frame[:len(frame)-cut])
	}
	for _, dc := range []int64{0, 1, -3} {
		for pairs := 0; pairs < 40; pairs++ {
			seeds = append(seeds, straddle(dc, pairs))
		}
	}
	return seeds
}

// FuzzSkipVsReference: on arbitrary bytes the word-at-a-time kernel and the
// bit-at-a-time oracle agree on values, errors and cursor.
func FuzzSkipVsReference(f *testing.F) {
	for _, s := range skipSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { walkBlocks(t, data) })
}

// walkers returns the frame-level kernels DCBlocks can run here: the Go
// twin and the one DCBlocks dispatches to (the assembly routine on amd64,
// installed by an init function, so read at call time).
func walkers() []namedWalker {
	return []namedWalker{{"Go twin", walkBlocksGo}, {"dispatch", walkKernel}}
}

type namedWalker struct {
	name string
	walk blockWalker
}

// walkDCBlocks asks DCBlocks for more blocks than data can hold, so that it
// runs to the input's first error, and requires what walkBlocks requires of
// the per-block calls: the oracle's deltas, block count, error text and
// final bit position. A second reader takes the same blocks in two calls,
// split where the first call's load is still half used. Every kernel is
// held to that, and the kernels to each other from every bit of the first
// bytes (walkersAgree).
func walkDCBlocks(t *testing.T, data []byte) { walkDCBlocksTo(t, data, testEOB) }

func walkDCBlocksTo(t *testing.T, data []byte, eob uint64) {
	t.Helper()
	ref := &refReader{data: data}
	var want []int64
	var wantErr error
	for wantErr == nil {
		var d int64
		if d, wantErr = ref.readSE(); wantErr == nil {
			wantErr = ref.skipRunLevels(eob)
		}
		if wantErr == nil {
			want = append(want, d)
		}
	}
	for _, k := range walkers() {
		for _, split := range []int{0, len(want) / 2} {
			r := NewReader(data)
			got := make([]int64, len(want)+1)
			n, err := r.dcBlocks(got[:split], eob, k.walk)
			if n != split || err != nil {
				t.Fatalf("%s: first %d blocks: walked %d, error %v", k.name, split, n, err)
			}
			n, err = r.dcBlocks(got[split:], eob, k.walk)
			if n += split; n != len(want) || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: split %d: %d blocks then %v, oracle %d then %v", k.name, split, n, err, len(want), wantErr)
			}
			if !slices.Equal(got[:n], want) {
				t.Fatalf("%s: split %d: deltas %v, oracle %v", k.name, split, got[:n], want)
			}
			if pos := len(data)*8 - r.Remaining(); pos != ref.bitPos() {
				t.Fatalf("%s: split %d (err %v): bit position %d, oracle %d", k.name, split, err, pos, ref.bitPos())
			}
		}
	}
	walkersAgree(t, data, eob)
}

// walkersAgree calls every kernel directly from each of the first 16 bit
// positions with room for a load, asking for up to 3, 40 and 400 blocks,
// and requires of them the twin's block count, end cursor and every slot of
// deltas, scratch included.
func walkersAgree(t *testing.T, data []byte, eob uint64) {
	t.Helper()
	if len(data) < 8 || eob+1 < 64 || eob+1 > 127 {
		return
	}
	for pos := uint(0); pos < 16 && pos>>3 <= uint(len(data)-8); pos++ {
		for _, size := range []int{3, 40, 400} {
			want := scratchSlots(size)
			wantB, wantEnd := walkBlocksGo(data, pos, want, eob+1)
			for _, k := range walkers()[1:] {
				got := scratchSlots(size)
				b, end := k.walk(data, pos, got, eob+1)
				if b != wantB || end != wantEnd || !slices.Equal(got, want) {
					t.Fatalf("%s from bit %d into %d slots: %d blocks to bit %d, deltas %v; Go twin %d to %d, %v",
						k.name, pos, size, b, end, got, wantB, wantEnd, want)
				}
			}
		}
	}
}

// scratchSlots is a deltas buffer of n slots holding a value no walk stores.
func scratchSlots(n int) []int64 {
	d := make([]int64, n)
	for i := range d {
		d[i] = -1 << 40
	}
	return d
}

// FuzzDCBlocksVsReference: on arbitrary bytes the frame-level kernel — the
// assembly routine and its Go twin — and the bit-at-a-time oracle agree on
// deltas, block count, error and cursor.
func FuzzDCBlocksVsReference(f *testing.F) {
	for _, s := range skipSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { walkDCBlocks(t, data) })
}

// TestSkipVsReference runs the fuzz seeds plus random payloads truncated at
// every byte and random noise as an ordinary test.
func TestSkipVsReference(t *testing.T) {
	for _, s := range skipSeeds(t) {
		walkBlocks(t, s)
		walkDCBlocks(t, s)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 40; i++ {
		p := blockPayload(rng, 1+rng.Intn(6), []int64{1, 6, 40, 5000}[i%4])
		for cut := 0; cut <= len(p); cut++ {
			walkBlocks(t, p[:cut])
			walkDCBlocks(t, p[:cut])
		}
		noise := make([]byte, rng.Intn(64))
		rng.Read(noise)
		for j := range noise { // bias towards ones so codes stay short and blocks end
			noise[j] |= byte(rng.Intn(256))
		}
		walkBlocks(t, noise)
		walkDCBlocks(t, noise)
	}
}

// TestReaderVsReference compares ReadUE, ReadSE and ReadBits with the oracle
// on noise, from every starting bit offset, up to the first error.
func TestReaderVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		if i%3 == 0 { // long zero runs: long codes and malformed ones
			for j := range data {
				if rng.Intn(4) != 0 {
					data[j] = 0
				}
			}
		}
		r, ref := NewReader(data), &refReader{data: data}
		for step := 0; ; step++ {
			var got, want uint64
			var gotErr, wantErr error
			switch op := rng.Intn(3); op {
			case 0:
				got, gotErr = r.ReadUE()
				want, wantErr = ref.readUE()
			case 1:
				var g, w int64
				g, gotErr = r.ReadSE()
				w, wantErr = ref.readSE()
				got, want = uint64(g), uint64(w)
			default:
				n := uint(rng.Intn(65))
				got, gotErr = r.ReadBits(n)
				want, wantErr = ref.readBits(n)
			}
			if got != want || (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("input %d step %d: (%d, %v), oracle (%d, %v)", i, step, got, gotErr, want, wantErr)
			}
			if pos := len(data)*8 - r.Remaining(); pos != ref.bitPos() {
				t.Fatalf("input %d step %d: bit position %d, oracle %d", i, step, pos, ref.bitPos())
			}
			if gotErr != nil {
				break
			}
		}
	}
}

// TestSkipTable rebuilds each of the 4096 entries by brute force: walk the
// prefix bit by bit, keep the codes that end inside it.
func TestSkipTable(t *testing.T) {
	for p := range skipTable {
		var bitsUsed, codes int
		for pos := 0; ; {
			zeros := 0
			for pos+zeros < skipPrefixBits && p>>(skipPrefixBits-1-pos-zeros)&1 == 0 {
				zeros++
			}
			n := 2*zeros + 1
			if pos+n > skipPrefixBits {
				break
			}
			pos += n
			bitsUsed, codes = pos, codes+1
		}
		if e := skipTable[p]; int(e.bits) != bitsUsed || int(e.codes) != codes {
			t.Fatalf("prefix %012b: table (%d bits, %d codes), brute force (%d, %d)", p, e.bits, e.codes, bitsUsed, codes)
		}
	}
	if e := skipTable[0]; e.codes != 0 {
		t.Errorf("all-zero prefix retires %d codes", e.codes)
	}
	if e := skipTable[1<<skipPrefixBits-1]; e.bits != skipPrefixBits || e.codes != skipPrefixBits {
		t.Errorf("all-ones prefix: (%d bits, %d codes), want (12, 12)", e.bits, e.codes)
	}
}

// TestDCBlocksMarkers: the kernel's table knows 13-bit markers only (63 to
// 126); any other marker's blocks all take the per-block path, with the same
// answers. The levels include each marker's own bit pattern.
func TestDCBlocksMarkers(t *testing.T) {
	for _, eob := range []uint64{63, 64, 126, 127, 200, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(eob)))
		w := NewWriter(256)
		for b := 0; b < 12; b++ {
			w.WriteSE(rng.Int63n(4001) - 2000)
			for k := rng.Intn(9); k > 0; k-- {
				w.WriteUE(uint64(rng.Intn(62)))
				if rng.Intn(3) == 0 {
					w.WriteUE(eob) // the marker's code in level position
				} else {
					w.WriteUE(uint64(rng.Intn(300)))
				}
			}
			w.WriteUE(eob)
		}
		w.WriteBits(0, 64) // chroma's stand-in: keeps the blocks out of the last 8 bytes
		walkDCBlocksTo(t, bytes.Clone(w.Bytes()), eob)
	}
}

func TestDCBlocksRejectsShortMarker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("end marker 62 accepted")
		}
	}()
	_, _ = NewReader([]byte{0xFF}).DCBlocks(make([]int64, 1), 62)
}

// TestSkipRunLevelsLevelEqualToEOB: the end marker's bit pattern in level
// position is a level (SE 32), not the end of the block.
func TestSkipRunLevelsLevelEqualToEOB(t *testing.T) {
	w := NewWriter(16)
	w.WriteUE(2)
	w.WriteSE(32)
	w.WriteUE(testEOB)
	w.WriteBits(0b101, 3)
	r := NewReader(w.Bytes())
	if err := r.SkipRunLevels(testEOB); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Errorf("after the block read (%03b, %v), want 101", v, err)
	}
}

func TestSkipRunLevelsRejectsShortMarker(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("end marker 62 (an 11-bit code the table would swallow) accepted")
		}
	}()
	_ = NewReader([]byte{0xFF}).SkipRunLevels(62)
}

// TestRealIFrameParses: the testdata payload holds exactly its geometry's
// blocks, so the seeds and the benchmark below walk what they claim to.
func TestRealIFrameParses(t *testing.T) {
	r := NewReader(realIFrame(t))
	for b := 0; b < iframeBlocks; b++ {
		if _, err := r.ReadSE(); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if err := r.SkipRunLevels(testEOB); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	if r.Remaining() >= 8 {
		t.Errorf("%d bits left after the last block, want only alignment padding", r.Remaining())
	}
}

// BenchmarkSkipRunLevels walks whole blocks (DC delta + skip) over a real
// I-frame payload and over synthetic payloads of short and of long codes.
func BenchmarkSkipRunLevels(b *testing.B) {
	for _, bc := range []struct {
		name   string
		blocks int
		data   []byte
	}{
		{"iframe", iframeBlocks, realIFrame(b)},
		{"short-codes", 120, blockPayload(rand.New(rand.NewSource(17)), 120, 6)},
		{"long-codes", 120, blockPayload(rand.New(rand.NewSource(17)), 120, 5000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := Reader{data: bc.data}
				for j := 0; j < bc.blocks; j++ {
					if _, err := r.ReadSE(); err != nil {
						b.Fatal(err)
					}
					if err := r.SkipRunLevels(testEOB); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
