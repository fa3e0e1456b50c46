package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of vs by linear
// interpolation between closest ranks; NaN for an empty sample. vs is not
// modified.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// quartiles returns the first and third quartile of vs.
func quartiles(vs []float64) (q1, q3 float64) {
	return percentile(vs, 25), percentile(vs, 75)
}

// sample summarises repeated measurements of one quantity.
type sample struct {
	Median, Q1, Q3 float64
	N              int
}

func summarise(vs []float64) sample {
	q1, q3 := quartiles(vs)
	return sample{Median: median(vs), Q1: q1, Q3: q3, N: len(vs)}
}
