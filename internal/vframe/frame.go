// Package vframe provides the raw-video substrate: YCbCr 4:2:0 frames,
// lazy frame sources, and a deterministic synthetic video generator.
//
// The paper evaluates on real short videos downloaded from Google Video.
// No video assets exist in this offline environment, so videos are
// synthesised instead: a per-video seed drives smoothly evolving scenes
// (drifting gradients, moving blobs, static texture) split into shots.
// Frames within one video are temporally coherent while different seeds
// produce visually distinct content — the two properties the compressed-
// domain fingerprint of the paper depends on.
package vframe

import (
	"fmt"
	"math"
)

// Frame is a YCbCr 4:2:0 picture. Y has W×H samples; Cb and Cr each have
// (W/2)×(H/2). W and H must be multiples of 16 (one macroblock).
type Frame struct {
	W, H      int
	Y, Cb, Cr []uint8
}

// NewFrame allocates a zeroed frame. It panics if w or h is not a positive
// multiple of 16.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		panic(fmt.Sprintf("vframe: dimensions %dx%d must be positive multiples of 16", w, h))
	}
	return &Frame{
		W:  w,
		H:  h,
		Y:  make([]uint8, w*h),
		Cb: make([]uint8, w*h/4),
		Cr: make([]uint8, w*h/4),
	}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{
		W:  f.W,
		H:  f.H,
		Y:  append([]uint8(nil), f.Y...),
		Cb: append([]uint8(nil), f.Cb...),
		Cr: append([]uint8(nil), f.Cr...),
	}
	return g
}

func clamp(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// MeanLuma returns the average luma value of the frame.
func (f *Frame) MeanLuma() float64 {
	var s int64
	for _, v := range f.Y {
		s += int64(v)
	}
	return float64(s) / float64(len(f.Y))
}

// PSNR returns the luma peak signal-to-noise ratio between two frames of
// identical dimensions, in dB. Identical frames give +Inf.
func PSNR(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic("vframe: PSNR dimension mismatch")
	}
	var se float64
	for i := range a.Y {
		d := float64(a.Y[i]) - float64(b.Y[i])
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a.Y))
	return 10 * math.Log10(255*255/mse)
}

// Resize scales f to w×h using bilinear interpolation on each plane.
// w and h must be positive multiples of 16.
func Resize(f *Frame, w, h int) *Frame {
	out := NewFrame(w, h)
	resizePlane(f.Y, f.W, f.H, out.Y, w, h)
	resizePlane(f.Cb, f.W/2, f.H/2, out.Cb, w/2, h/2)
	resizePlane(f.Cr, f.W/2, f.H/2, out.Cr, w/2, h/2)
	return out
}

func resizePlane(src []uint8, sw, sh int, dst []uint8, dw, dh int) {
	xr := float64(sw) / float64(dw)
	yr := float64(sh) / float64(dh)
	for y := 0; y < dh; y++ {
		sy := (float64(y)+0.5)*yr - 0.5
		y0 := int(sy)
		fy := sy - float64(y0)
		if y0 < 0 {
			y0, fy = 0, 0
		}
		y1 := y0 + 1
		if y1 >= sh {
			y1 = sh - 1
		}
		for x := 0; x < dw; x++ {
			sx := (float64(x)+0.5)*xr - 0.5
			x0 := int(sx)
			fx := sx - float64(x0)
			if x0 < 0 {
				x0, fx = 0, 0
			}
			x1 := x0 + 1
			if x1 >= sw {
				x1 = sw - 1
			}
			v00 := float64(src[y0*sw+x0])
			v01 := float64(src[y0*sw+x1])
			v10 := float64(src[y1*sw+x0])
			v11 := float64(src[y1*sw+x1])
			top := v00 + (v01-v00)*fx
			bot := v10 + (v11-v10)*fx
			dst[y*dw+x] = clampU8(top + (bot-top)*fy)
		}
	}
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
