package minhash

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// fuzzKs are the family sizes FuzzSketchRows draws from: every tail length
// with and without whole four-row steps, sixteen-row steps followed by
// none, some and three four-row steps with and without a Go tail, the
// benchmark's K, and K past it.
var fuzzKs = []int{1, 2, 3, 4, 5, 6, 7, 15, 16, 17, 31, 33, 47, 48, 49, 64, 800, 803, 816, 819}

// namedSketchKernel is a vector routine the tests call by name.
type namedSketchKernel struct {
	name string
	sketchKernel
}

// checkSketchRows folds xms into copies of s with the Go twin, with the
// dispatch sketchRows makes and with each vector routine this CPU has
// alone over its whole steps, dispatched or not, and requires the twin's
// sketch and, for a non-nil row, its winners from each.
func checkSketchRows(t *testing.T, f *Family, s Sketch, withRow bool, xms []uint64) {
	t.Helper()
	run := func(fold func(s Sketch, row []uint16)) (Sketch, []uint16) {
		out := s.Clone()
		var row []uint16
		if withRow {
			row = make([]uint16, len(s))
			for i := range row {
				row[i] = 0xbeef // no fold leaves this
			}
		}
		fold(out, row)
		return out, row
	}
	wantS, wantRow := run(func(s Sketch, row []uint16) { sketchRowsGo(f.a, f.b, s, row, xms) })
	got := map[string]func(Sketch, []uint16){"dispatch": func(s Sketch, row []uint16) { f.sketchRows(s, row, xms) }}
	for _, k := range vectorSketchKernels() {
		n := len(s) / k.step * k.step
		if n == 0 {
			continue
		}
		got[k.name] = func(s Sketch, row []uint16) {
			var head []uint16
			if row != nil {
				head = row[:n]
			}
			k.fold(f.a[:n], f.b[:n], s[:n], head, xms)
			sketchRowsGo(f.a[n:], f.b[n:], s[n:], row[min(n, len(row)):], xms)
		}
	}
	for name, fold := range got {
		gotS, gotRow := run(fold)
		if !slices.Equal(gotS, wantS) || !slices.Equal(gotRow, wantRow) {
			for i := range gotS {
				if gotS[i] != wantS[i] || (withRow && gotRow[i] != wantRow[i]) {
					t.Fatalf("K=%d, %d elements, row %v, %s: row %d holds %d (winner %v), Go twin %d (winner %v)\nxms=%x",
						len(s), len(xms), withRow, name, i, gotS[i], gotRow, wantS[i], wantRow, xms)
				}
			}
		}
	}
}

// FuzzSketchRows holds the vector routines and the dispatch to the Go twin:
// K in fuzzKs, 0–70 elements with repeats and the values 0, p−1 and p−2,
// empty and pre-filled sketches (any value, Empty and values ≥ p among
// them), with and without winners.
func FuzzSketchRows(f *testing.F) {
	if len(vectorSketchKernels()) == 0 {
		f.Log("no vector routine on this CPU: checking the dispatch only")
	}
	f.Add(uint8(8), int64(1), false, true, []byte{})
	f.Add(uint8(9), int64(2), true, false, make([]byte, 70*9))
	f.Add(uint8(3), int64(3), false, true, bytes.Repeat([]byte{0xff}, 5*9))
	f.Add(uint8(16), int64(4), true, true, bytes.Repeat([]byte{0xff}, 5*9))
	f.Fuzz(func(t *testing.T, kSel uint8, seed int64, prefill, withRow bool, raw []byte) {
		fam, err := NewFamily(fuzzKs[int(kSel)%len(fuzzKs)], seed)
		if err != nil {
			t.Fatal(err)
		}
		var xms []uint64
		for ; len(raw) >= 9 && len(xms) < 70; raw = raw[9:] {
			v := binary.LittleEndian.Uint64(raw[1:])
			switch raw[0] % 8 {
			case 0:
				v = 0
			case 1:
				v = mersennePrime - 1
			case 2:
				v = mersennePrime - 2
			case 3:
				if len(xms) > 0 {
					v = xms[int(v%uint64(len(xms)))]
				}
			}
			xms = append(xms, v%mersennePrime)
		}
		s := fam.NewSketch()
		if prefill {
			rng := rand.New(rand.NewSource(seed))
			for i := range s {
				switch rng.Intn(4) {
				case 0: // stays Empty
				case 1:
					s[i] = rng.Uint64()
				default:
					s[i] = rng.Uint64() % mersennePrime
				}
			}
		}
		checkSketchRows(t, fam, s, withRow, xms)
	})
}

// TestSketchRowsExtremes pins the largest multipliers and offsets,
// a_i = b_i = p−1−i, against elements at the ends of [0, p) and at the
// 32-bit boundaries the partial products split on, and against an
// independent reduction. Each element also ties with a copy of itself
// after it, whose row the first keeps.
func TestSketchRowsExtremes(t *testing.T) {
	const k = 803
	f := &Family{a: make([]uint64, k), b: make([]uint64, k), k: k}
	for i := range f.a {
		f.a[i] = mersennePrime - 1 - uint64(i)
		f.b[i] = f.a[i]
	}
	xs := []uint64{0, 1, 2, 1<<29 - 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<61 - 1<<32,
		mersennePrime - 3, mersennePrime - 2, mersennePrime - 1}
	for i, x := range xs {
		for _, a := range []uint64{f.a[0], f.a[k-1], f.a[k/2]} {
			if got, want := mulAddMod(a, x, a), naiveMulAddMod(a, x, a); got != want {
				t.Fatalf("mulAddMod(%d, %d, %d) = %d, independent reduction %d", a, x, a, got, want)
			}
		}
		for _, withRow := range []bool{false, true} {
			checkSketchRows(t, f, f.NewSketch(), withRow, xs[i:i+1])
			checkSketchRows(t, f, f.NewSketch(), withRow, xs[i:])
			checkSketchRows(t, f, f.NewSketch(), withRow, append(slices.Clone(xs[i:]), xs[:i]...))
			checkSketchRows(t, f, f.NewSketch(), withRow, []uint64{x, xs[0], x})
		}
	}
}

// BenchmarkSketchRowsK800 sketches one basic window's shape, 5 distinct
// elements into K = 800 rows with winners, on the Go twin and on each
// vector routine by name over all 800 rows, cycling through many windows.
// A routine this CPU lacks is skipped. It reports ns per sketch.
func BenchmarkSketchRowsK800(b *testing.B) {
	f, _ := NewFamily(800, 1)
	rng := rand.New(rand.NewSource(5))
	windows := make([][]uint64, 512)
	for i := range windows {
		windows[i] = make([]uint64, 5)
		for j := range windows[i] {
			windows[i][j] = premix(rng.Uint64())
		}
	}
	s, row := f.NewSketch(), make([]uint16, 800)
	kernels := map[string]func(a, b, s []uint64, row []uint16, xms []uint64){
		"go": func(a, b, s []uint64, row []uint16, xms []uint64) { sketchRowsGo(a, b, s, row, xms) },
	}
	for _, k := range vectorSketchKernels() {
		kernels[k.name] = k.fold
	}
	for _, name := range []string{"go", "avx2", "avx512"} {
		b.Run(name, func(b *testing.B) {
			fold := kernels[name]
			if fold == nil {
				b.Skipf("no %s routine on this CPU", name)
			}
			for i := 0; i < b.N; i++ {
				for j := range s {
					s[j] = Empty
				}
				fold(f.a, f.b, s, row, windows[i%len(windows)])
			}
		})
	}
}
