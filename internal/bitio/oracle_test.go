package bitio

import "errors"

// refReader is the bit-at-a-time reader that Reader replaced, kept as the
// oracle the word-at-a-time kernel is compared with: every code is consumed
// one bit per step, so its behaviour at every truncation point is the
// definition of correct.
type refReader struct {
	data []byte
	pos  int   // next byte index
	cur  uint8 // current byte being consumed
	nCur uint8 // bits remaining in cur (0..8)
}

func (r *refReader) bitPos() int { return r.pos*8 - int(r.nCur) }

func (r *refReader) readBit() (uint, error) {
	if r.nCur == 0 {
		if r.pos >= len(r.data) {
			return 0, ErrUnexpectedEOF
		}
		r.cur = r.data[r.pos]
		r.pos++
		r.nCur = 8
	}
	r.nCur--
	return uint(r.cur>>r.nCur) & 1, nil
}

func (r *refReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) readUE() (uint64, error) {
	var zeros uint
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, errors.New("bitio: malformed Exp-Golomb code")
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return (1<<zeros | rest) - 1, nil
}

func (r *refReader) readSE() (int64, error) {
	u, err := r.readUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int64(u/2 + 1), nil
	}
	return -int64(u / 2), nil
}

// skipRunLevels is the loop blockCoder.skipAC ran before SkipRunLevels.
func (r *refReader) skipRunLevels(eob uint64) error {
	for {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		if run == eob {
			return nil
		}
		if _, err := r.readSE(); err != nil {
			return err
		}
	}
}

// refWriter is the bit-at-a-time writer that Writer replaced.
type refWriter struct {
	buf  []byte
	cur  uint8
	nCur uint8
}

func (w *refWriter) writeBit(b uint) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.nCur++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i)))
	}
}

func (w *refWriter) writeUE(v uint64) {
	x := v + 1
	var n uint
	for y := x; y > 0; y >>= 1 {
		n++
	}
	for i := uint(1); i < n; i++ {
		w.writeBit(0)
	}
	w.writeBits(x, n)
}

func (w *refWriter) align() {
	for w.nCur != 0 {
		w.writeBit(0)
	}
}
