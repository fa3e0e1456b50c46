package mpeg

import (
	"fmt"

	"vdsms/internal/bitio"
	"vdsms/internal/dct"
)

// eobRun is the reserved run value marking end-of-block in the AC run-level
// code. Real runs range over [0, 62], so 63 is unambiguous.
const eobRun = 63

// blockCoder carries the per-frame state required to encode and decode
// blocks: quantisation matrices and the DC DPCM predictors (one per plane
// kind, reset at every frame as in MPEG intra coding).
type blockCoder struct {
	lumaQ, chromaQ dct.IntBlock
	dcPred         [3]int32 // Y, Cb, Cr predictors
}

func newBlockCoder(quality int) *blockCoder {
	return &blockCoder{
		lumaQ:   dct.ScaleQuant(&dct.LumaQuant, quality),
		chromaQ: dct.ScaleQuant(&dct.ChromaQuant, quality),
	}
}

// resetPredictors restores the DC predictors at a frame boundary.
func (c *blockCoder) resetPredictors() { c.dcPred = [3]int32{} }

// plane kinds index dcPred.
const (
	planeY = iota
	planeCb
	planeCr
)

func (c *blockCoder) quant(plane int) *dct.IntBlock {
	if plane == planeY {
		return &c.lumaQ
	}
	return &c.chromaQ
}

// encodeBlock transforms, quantises and entropy-codes one 8×8 spatial block.
func (c *blockCoder) encodeBlock(w *bitio.Writer, plane int, spatial *dct.Block) {
	var freq dct.Block
	var lv dct.IntBlock
	dct.Forward(spatial, &freq)
	dct.Quantise(&freq, c.quant(plane), &lv)
	c.writeLevels(w, plane, &lv)
}

// writeLevels entropy-codes quantised levels: DC as a signed Exp-Golomb
// delta against the plane predictor, AC as (zero-run, level) pairs in
// zig-zag order terminated by an EOB symbol.
func (c *blockCoder) writeLevels(w *bitio.Writer, plane int, lv *dct.IntBlock) {
	w.WriteSE(int64(lv[0] - c.dcPred[plane]))
	c.dcPred[plane] = lv[0]
	run := 0
	for zz := 1; zz < 64; zz++ {
		v := lv[dct.ZigZag[zz]]
		if v == 0 {
			run++
			continue
		}
		w.WriteUE(uint64(run))
		w.WriteSE(int64(v))
		run = 0
	}
	w.WriteUE(eobRun)
}

// decodeBlock entropy-decodes, dequantises and inverse-transforms one block.
func (c *blockCoder) decodeBlock(r *bitio.Reader, plane int, spatial *dct.Block) error {
	var lv dct.IntBlock
	if err := c.readLevels(r, plane, &lv); err != nil {
		return err
	}
	var freq dct.Block
	dct.Dequantise(&lv, c.quant(plane), &freq)
	dct.Inverse(&freq, spatial)
	return nil
}

// readLevels is the inverse of writeLevels.
func (c *blockCoder) readLevels(r *bitio.Reader, plane int, lv *dct.IntBlock) error {
	d, err := r.ReadSE()
	if err != nil {
		return err
	}
	c.dcPred[plane] += int32(d)
	lv[0] = c.dcPred[plane]
	zz := 1
	for {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		if run == eobRun {
			return nil
		}
		zz += int(run)
		if zz >= 64 {
			return fmt.Errorf("mpeg: AC run overflows block (position %d)", zz)
		}
		level, err := r.ReadSE()
		if err != nil {
			return err
		}
		lv[dct.ZigZag[zz]] = int32(level)
		zz++
	}
}

// extractBlock copies the 8×8 tile at (bx, by) from a plane into spatial,
// converting uint8 samples to centred float values (sample − 128).
func extractBlock(plane []uint8, stride int, bx, by int, spatial *dct.Block) {
	base := by*8*stride + bx*8
	for y := 0; y < 8; y++ {
		row := base + y*stride
		for x := 0; x < 8; x++ {
			spatial[y*8+x] = float64(plane[row+x]) - 128
		}
	}
}

// storeBlock writes a reconstructed spatial block back into a plane,
// undoing the −128 centring with clamping.
func storeBlock(plane []uint8, stride int, bx, by int, spatial *dct.Block) {
	base := by*8*stride + bx*8
	for y := 0; y < 8; y++ {
		row := base + y*stride
		for x := 0; x < 8; x++ {
			v := spatial[y*8+x] + 128
			switch {
			case v < 0:
				plane[row+x] = 0
			case v > 255:
				plane[row+x] = 255
			default:
				plane[row+x] = uint8(v + 0.5)
			}
		}
	}
}

// extractResidual fills spatial with cur − ref for the 8×8 tile at (bx, by).
func extractResidual(cur, ref []uint8, stride int, bx, by int, spatial *dct.Block) {
	base := by*8*stride + bx*8
	for y := 0; y < 8; y++ {
		row := base + y*stride
		for x := 0; x < 8; x++ {
			spatial[y*8+x] = float64(cur[row+x]) - float64(ref[row+x])
		}
	}
}

// addResidual reconstructs cur = ref + residual with clamping.
func addResidual(cur, ref []uint8, stride int, bx, by int, spatial *dct.Block) {
	base := by*8*stride + bx*8
	for y := 0; y < 8; y++ {
		row := base + y*stride
		for x := 0; x < 8; x++ {
			v := float64(ref[row+x]) + spatial[y*8+x]
			switch {
			case v < 0:
				cur[row+x] = 0
			case v > 255:
				cur[row+x] = 255
			default:
				cur[row+x] = uint8(v + 0.5)
			}
		}
	}
}
