// Package bitio provides bit-granular writers and readers used by the
// compressed-video codec. It supports fixed-width bit fields, unsigned and
// signed Exp-Golomb codes (the variable-length codes used for DCT
// coefficients and headers), and byte alignment.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bitstream")

// Writer accumulates bits most-significant-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits in the low nAcc positions; higher bits are stale
	nAcc uint   // bits not yet flushed to buf (0..7 between calls)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// put appends the n-bit field v (v < 1<<n, n <= 56) and flushes the whole
// bytes it completes.
func (w *Writer) put(v uint64, n uint) {
	w.acc = w.acc<<n | v
	w.nAcc += n
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) { w.put(uint64(b&1), 1) }

// WriteBits appends the low n bits of v, most-significant bit first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	if n > 32 {
		w.put(v>>32&(1<<(n-32)-1), n-32)
		n = 32
	}
	w.put(v&(1<<n-1), n)
}

// WriteUE appends v using unsigned Exp-Golomb coding: z zero bits followed
// by the (z+1)-bit binary representation of v+1, where z = floor(log2(v+1)).
func (w *Writer) WriteUE(v uint64) {
	x := v + 1
	n := uint(bits.Len64(x))
	switch {
	case n == 0: // v+1 overflowed: not encodable, nothing is written
	case 2*n-1 <= 56:
		w.put(x, 2*n-1) // x < 1<<n supplies its own zero prefix
	default:
		w.WriteBits(0, n-1)
		w.WriteBits(x, n)
	}
}

// WriteSE appends v using signed Exp-Golomb coding with the H.264 mapping:
// 0→0, 1→1, -1→2, 2→3, -2→4, ...
func (w *Writer) WriteSE(v int64) {
	var u uint64
	if v > 0 {
		u = uint64(v)*2 - 1
	} else {
		u = uint64(-v) * 2
	}
	w.WriteUE(u)
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if w.nAcc != 0 {
		w.put(0, 8-w.nAcc)
	}
}

// Len reports the number of whole bytes written so far (excluding any
// partially filled byte).
func (w *Writer) Len() int { return len(w.buf) }

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nAcc) }

// Bytes byte-aligns the stream and returns the underlying buffer. The
// returned slice is owned by the Writer until Reset is called.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// WriteBytes byte-aligns the stream and appends p verbatim — the fast path
// for bulk payloads (sketch words, signature planes) inside a bit stream.
func (w *Writer) WriteBytes(p []byte) {
	w.Align()
	w.buf = append(w.buf, p...)
}

// Reset discards all written data, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nAcc = 0, 0
}

// WriteTo byte-aligns the stream and writes the buffer to dst.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(w.Bytes())
	return int64(n), err
}

// Reader consumes bits most-significant-first from a byte slice. Every
// decode works on one big-endian 64-bit load shifted to the cursor; the
// last bytes of the input go through the same code with a zero-padded load
// and a count of how many of its bits are real. A read that runs past the
// end returns ErrUnexpectedEOF and leaves the cursor at the end.
type Reader struct {
	data []byte
	pos  int // next unread bit
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset makes r a Reader over data from its first bit.
func (r *Reader) Reset(data []byte) { *r = Reader{data: data} }

// peek returns the upcoming bits left-aligned in a word, zero-padded, and
// how many of them are input: at least 57 until the last 8 bytes.
func (r *Reader) peek() (w uint64, valid int) {
	i, sh := r.pos>>3, r.pos&7
	if i+8 <= len(r.data) {
		return binary.BigEndian.Uint64(r.data[i:]) << sh, 64 - sh
	}
	var tail [8]byte
	copy(tail[:], r.data[i:])
	return binary.BigEndian.Uint64(tail[:]) << sh, len(r.data)*8 - r.pos
}

// eof parks the cursor at the end of the input.
func (r *Reader) eof() error {
	r.pos = len(r.data) * 8
	return ErrUnexpectedEOF
}

// ReadBit returns the next bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.readBits(1)
	return uint(v), err
}

// ReadBits returns the next n bits as an unsigned integer (MSB first).
// n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	switch {
	case n > 64:
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range", n)
	case n <= 32:
		return r.readBits(int(n))
	case int(n) > r.Remaining():
		return 0, r.eof()
	}
	hi, _ := r.readBits(int(n) - 32)
	lo, _ := r.readBits(32)
	return hi<<32 | lo, nil
}

// readBits reads a field of at most 57 bits, the widths one load always covers.
func (r *Reader) readBits(n int) (uint64, error) {
	w, valid := r.peek()
	if n > valid {
		return 0, r.eof()
	}
	r.pos += n
	return w >> (64 - n), nil
}

// ReadUE decodes an unsigned Exp-Golomb code.
func (r *Reader) ReadUE() (uint64, error) {
	w, valid := r.peek()
	if n := 2*bits.LeadingZeros64(w) + 1; n <= valid {
		r.pos += n
		return w>>(64-n) - 1, nil
	}
	return r.readLongUE()
}

// readLongUE decodes a code that one load does not cover: longer than 57
// bits, or cut off by the end of the input.
func (r *Reader) readLongUE() (uint64, error) {
	start := r.pos
	for {
		w, valid := r.peek()
		z := min(bits.LeadingZeros64(w), valid)
		r.pos += z
		if r.pos-start > 63 {
			r.pos = start + 64
			return 0, errors.New("bitio: malformed Exp-Golomb code")
		}
		if z < valid {
			break
		}
		if valid == 0 {
			return 0, r.eof()
		}
	}
	zeros := uint(r.pos - start)
	x, err := r.ReadBits(zeros + 1) // the marker bit and the zeros bits after it
	if err != nil {
		return 0, err
	}
	return x - 1, nil
}

// ReadSE decodes a signed Exp-Golomb code (inverse of WriteSE).
func (r *Reader) ReadSE() (int64, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	return seValue(u), nil
}

// seValue maps an unsigned Exp-Golomb value to the signed one: 0→0, 1→1,
// 2→-1, 3→2, 4→-2, ...
func seValue(u uint64) int64 {
	// Branch-free: the sign of a DC delta or a level is a coin toss.
	m := int64(u&1) - 1 // 0 for a positive value, -1 otherwise
	return (int64(u>>1+u&1) ^ m) - m
}

// skipPrefixBits is the width of the prefix SkipRunLevels looks up.
const skipPrefixBits = 12

// skipEntry says how far a 12-bit prefix lets SkipRunLevels advance: the
// Exp-Golomb codes that lie wholly inside it, parsed greedily.
type skipEntry struct {
	bits  uint8 // total length of those codes
	codes uint8 // how many there are; 0 when the first code is longer than 11 bits
}

var skipTable = buildSkipTable()

func buildSkipTable() (t [1 << skipPrefixBits]skipEntry) {
	for p := range t {
		w := uint64(p) << (64 - skipPrefixBits)
		e := &t[p]
		for {
			n := 2*bits.LeadingZeros64(w<<e.bits) + 1
			if int(e.bits)+n > skipPrefixBits {
				break
			}
			e.bits += uint8(n)
			e.codes++
		}
	}
	return t
}

// SkipRunLevels consumes alternating (run, level) Exp-Golomb codes up to and
// including the run code whose value is eob — the one primitive partial
// decoding needs: the codes' lengths are parsed, their values are not.
//
// eob must be at least 63, which makes its code at least 13 bits long. No
// code inside a 12-bit prefix can then be the end marker, so for those only
// the total length and the parity of the count matter (is the next code a
// run or a level?), and one table lookup retires all of them. A code the
// prefix does not cover is decoded alone and, in run position, compared
// with eob. A level that happens to equal eob does not end the block.
func (r *Reader) SkipRunLevels(eob uint64) error {
	if eob < 1<<(skipPrefixBits/2)-1 {
		panic(fmt.Sprintf("bitio: SkipRunLevels end marker %d has a code shorter than %d bits", eob, skipPrefixBits+1))
	}
	level := uint8(0) // 1 when the next code is a level
	for {
		w, valid := r.peek()
		used := 0 // bits of this load already stepped over
		for {
			rest := w << used
			e := skipTable[rest>>(64-skipPrefixBits)]
			n, codes := int(e.bits), e.codes
			if codes == 0 { // one code, longer than the prefix
				n, codes = 2*bits.LeadingZeros64(rest)+1, 1
			}
			if used+n > valid {
				break
			}
			used += n
			if e.codes == 0 && level == 0 && rest>>(64-n) == eob+1 {
				r.pos += used
				return nil
			}
			level ^= codes & 1
		}
		r.pos += used
		if used > 0 {
			continue
		}
		// Not even one code fits the load: it is longer than 57 bits or the
		// input ends inside it.
		v, err := r.ReadUE()
		if err != nil {
			return err
		}
		if level == 0 && v == eob {
			return nil
		}
		level ^= 1
	}
}

// DCBlocks walks len(deltas) blocks — a signed DC delta, then run/level
// codes through the run equal to eob, which must be at least 63 — storing
// each block's delta, and returns how many blocks it finished; the rest of
// deltas is scratch. It is ReadSE followed by SkipRunLevels once per block:
// the frame-level kernel takes the blocks it can at word speed, and a block
// it stops in front of is handed from its first bit to those two, so errors
// and the cursor they leave are theirs.
func (r *Reader) DCBlocks(deltas []int64, eob uint64) (int, error) {
	return r.dcBlocks(deltas, eob, walkKernel)
}

// dcBlocks is DCBlocks with the kernel named, so that tests can hold the
// assembly routine and its Go twin to the same answers.
func (r *Reader) dcBlocks(deltas []int64, eob uint64, walk blockWalker) (int, error) {
	checkEOB(eob)
	return r.finishBlocks(deltas, eob, walk, r.walk(walk, deltas, eob+1))
}

// checkEOB panics on an end marker the kernels cannot take.
func checkEOB(eob uint64) {
	if eob < 1<<(skipPrefixBits/2)-1 {
		panic(fmt.Sprintf("bitio: DCBlocks end marker %d has a code shorter than %d bits", eob, skipPrefixBits+1))
	}
}

// finishBlocks is the rest of DCBlocks once a kernel has walked the first b
// blocks: a block the kernel stopped in front of is taken the per-block way,
// and the kernel goes on after it.
func (r *Reader) finishBlocks(deltas []int64, eob uint64, walk blockWalker, b int) (int, error) {
	for b < len(deltas) {
		d, err := r.ReadSE() // block b, the per-block way
		if err == nil {
			err = r.SkipRunLevels(eob)
		}
		if err != nil {
			return b, err
		}
		deltas[b] = d
		b++
		b += r.walk(walk, deltas[b:], eob+1)
	}
	return b, nil
}

// GroupLanes is how many lanes the group kernel walks in one step.
const GroupLanes = 16

// minGroupLanes is the fewest lanes DCBlocksGroup hands the group kernel:
// a vector step costs about three of the frame-level kernel's, so fewer
// lanes are walked one after another.
const minGroupLanes = 4

// A Lane is one walk of DCBlocksGroup: a reader and the deltas it fills in
// going in, DCBlocks' block count and error coming out.
type Lane struct {
	R      Reader
	Deltas []int64
	N      int
	Err    error
}

// DCBlocksGroup is DCBlocks(l.Deltas, eob) on the reader of every lane,
// with the same deltas, counts, errors and cursors, for payloads that are
// independent of one another: a window's key frames. The group kernel walks
// up to GroupLanes of them in one pass, a lane each (walk_amd64.s, on CPUs
// with AVX-512; elsewhere the frame-level kernel once per lane), and a lane
// it stops in front of a block finishes the way DCBlocks does.
func DCBlocksGroup(lanes []Lane, eob uint64) { dcBlocksGroup(lanes, eob, groupKernel) }

// dcBlocksGroup is DCBlocksGroup with the group kernel named, so that tests
// can hold the vector routine and its twin to the same answers.
func dcBlocksGroup(lanes []Lane, eob uint64, group laneWalker) {
	checkEOB(eob)
	for rest := lanes; len(rest) > 0; {
		chunk := rest[:min(len(rest), GroupLanes)]
		rest = rest[len(chunk):]
		if len(chunk) < minGroupLanes || (eob+1)>>(skipPrefixBits/2) != 1 {
			walkLanesSerial(chunk, eob+1) // the kernels' table knows 13-bit markers only
		} else {
			group(chunk, eob+1)
		}
	}
	for i := range lanes {
		l := &lanes[i]
		l.N, l.Err = l.R.finishBlocks(l.Deltas, eob, walkKernel, l.N)
	}
}

// laneWalker is the group kernel: for each of up to GroupLanes lanes, what
// Reader.walk does with the lane's reader and deltas — lane.N is the blocks
// walked and the reader's cursor is left behind the last of them.
type laneWalker func(lanes []Lane, mark uint64)

// groupKernel is the kernel DCBlocksGroup runs: walkLanesSerial, or the
// vector routine where the CPU has one (walk_amd64.go).
var groupKernel laneWalker = walkLanesSerial

// walkLanesSerial is the group kernel's twin and oracle: the frame-level
// kernel DCBlocks runs, once per lane.
func walkLanesSerial(lanes []Lane, mark uint64) {
	for i := range lanes {
		l := &lanes[i]
		l.N = l.R.walk(walkKernel, l.Deltas, mark)
	}
}

// walk runs the frame-level kernel from the cursor, whose byte a full load
// can start at, and leaves the cursor behind the last block walked. It walks
// nothing when the input is shorter than one load or the marker (eob+1) is
// not a 13-bit code.
func (r *Reader) walk(walk blockWalker, deltas []int64, mark uint64) int {
	if len(r.data) < 8 || r.pos>>3 > len(r.data)-8 || mark>>(skipPrefixBits/2) != 1 {
		return 0
	}
	b, end := walk(r.data, uint(r.pos), deltas, mark)
	r.pos = int(end)
	return b
}

// blockWalker is the frame-level kernel: from bit pos of data, it walks
// blocks into deltas and returns how many it finished and the bit after the
// last of them. Callers guarantee len(data) ≥ 8, pos>>3 ≤ len(data)−8 and a
// 13-bit mark (eob+1).
type blockWalker func(data []byte, pos uint, deltas []int64, mark uint64) (b int, end uint)

// walkKernel is the kernel DCBlocks runs: walkBlocksGo, or its assembly
// twin where there is one (walk_amd64.go).
var walkKernel blockWalker = walkBlocksGo

// walkTable is skipTable with the 13-bit codes added: a prefix of six zeros
// and a one fixes the length of a code whose last bit lies outside it. The
// end marker of the kernel is one of these, so its table retires the marker
// like any other code.
var walkTable = func() [1 << skipPrefixBits]skipEntry {
	t := skipTable
	for p := 1 << (skipPrefixBits/2 - 1); p < 1<<(skipPrefixBits/2); p++ {
		t[p] = skipEntry{bits: skipPrefixBits + 1, codes: 1}
	}
	return t
}()

// maxWalkCode is the longest code the kernel steps over: a step works on the
// load made one step earlier, so two consecutive codes have to fit the 57
// bits a load is sure to hold past its cursor.
const maxWalkCode = 28

// walkBlocksGo is the frame-level kernel in Go, and the oracle of its
// assembly twin. It stops in front of a block holding a code longer than
// maxWalkCode bits or reaching into the input's last 8 bytes. (The luma
// plane of an encoded frame has neither: quantised levels stay under 2¹³
// and the chroma planes follow it.)
//
// The walk has no branch that depends on the data. A frame is one
// alternating sequence — a DC delta sits in level position, the end marker
// in run position — so a first pass steps through it by table lookup with
// one parity for the whole frame, notes the cursor after every step in the
// slot of the current block and moves to the next slot when the step was a
// marker in run position; what remains in a slot is where its block ends.
// There is no refill either: every step starts the load for the next one at
// its own cursor and works on the word the previous step loaded, shifted
// past that step's code. The second pass reads each delta at the end of the
// block before, independent loads that overlap.
func walkBlocksGo(data []byte, pos uint, deltas []int64, mark uint64) (b int, end uint) {
	last := uint(len(data) - 8) // the last byte a full load can start at
	cur := pos
	i := cur >> 3
	// w is a load and s how many of its leading bits lie behind the cursor.
	w, s := binary.BigEndian.Uint64(data[i:]), cur&7
	level := uint8(1) // low bit set when the next code is in level position
	for b < len(deltas) {
		rest := w << (s & 63)
		if i = cur >> 3; i > last {
			break
		}
		w, s = binary.BigEndian.Uint64(data[i:]), cur&7
		e := &walkTable[rest>>(64-skipPrefixBits)]
		n, codes := uint(e.bits), e.codes
		if codes == 0 { // one code, 15 bits or longer
			if n = uint(2*bits.LeadingZeros64(rest) + 1); n > maxWalkCode {
				break
			}
			codes = 1
		}
		cur, s = cur+n, s+n
		deltas[b] = int64(cur)
		isMark := uint8(0)
		if rest>>(63-skipPrefixBits) == mark {
			isMark = 1
		}
		b += int(isMark &^ level)
		level ^= codes
	}
	end = pos
	for j, next := range deltas[:b] {
		w = binary.BigEndian.Uint64(data[end>>3:]) << (end & 7)
		n := uint(2*bits.LeadingZeros64(w) + 1)
		deltas[j] = seValue(w>>((64-n)&63) - 1)
		end = uint(next)
	}
	return b, end
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() { r.pos = (r.pos + 7) &^ 7 }

// SkipBits discards the next n bits.
func (r *Reader) SkipBits(n uint) error {
	if n > uint(r.Remaining()) {
		return r.eof()
	}
	r.pos += int(n)
	return nil
}

// ReadBytes aligns to a byte boundary and returns the next n bytes. The
// returned slice aliases the Reader's input; callers that retain it must
// copy. Inverse of Writer.WriteBytes.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitio: ReadBytes count %d negative", n)
	}
	r.Align()
	i := r.pos >> 3
	if n > len(r.data)-i {
		return nil, r.eof()
	}
	r.pos += n * 8
	return r.data[i : i+n], nil
}

// SkipBytes discards n whole bytes after aligning to a byte boundary. A
// negative count is an error and, like running past the end, leaves the
// cursor at the end.
func (r *Reader) SkipBytes(n int) error {
	if n < 0 {
		r.pos = len(r.data) * 8
		return fmt.Errorf("bitio: SkipBytes count %d negative", n)
	}
	_, err := r.ReadBytes(n)
	return err
}

// ByteOffset reports the index of the next unread byte (after alignment).
func (r *Reader) ByteOffset() int { return (r.pos + 7) >> 3 }

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return len(r.data)*8 - r.pos }
