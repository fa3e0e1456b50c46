package qindex

import (
	"math/rand"
	"slices"
	"testing"

	"vdsms/internal/minhash"
)

// TestRowSetsVsScatter holds the dispatched row-set pass and each vector
// routine this CPU has, by name, to the scalar scatter: K around one and
// several 64-row words, 1 to 70 cells with rows spread over all of them or
// only a few (the rest win none), into a buffer holding stale bits; and a
// vector routine given no cells or no rows writes nothing.
func TestRowSetsVsScatter(t *testing.T) {
	kernels := map[string]func([]uint64, []uint16){"dispatch": rowSets}
	for name, f := range vectorRowSets() {
		kernels[name] = f
	}
	if len(kernels) == 1 {
		t.Log("no vector routine on this CPU: checking the dispatch only")
	}
	for name, f := range vectorRowSets() {
		stale := []uint64{7}
		f(nil, []uint16{0, 0})
		if f(stale, nil); stale[0] != 7 {
			t.Fatalf("%s: no cells or no rows must write nothing", name)
		}
	}
	rng := rand.New(rand.NewSource(50))
	for _, k := range []int{1, 63, 64, 65, 800, 803} {
		nw := (k + 63) / 64
		for cells := 1; cells <= 70; cells++ {
			for _, winning := range []int{cells, min(cells, 3)} {
				row := make([]uint16, k)
				for i := range row {
					row[i] = uint16(rng.Intn(winning))
				}
				want := make([]uint64, cells*nw)
				rowSetsGo(want, row)
				for name, f := range kernels {
					got := make([]uint64, cells*nw)
					for i := range got {
						got[i] = rng.Uint64()
					}
					f(got, row)
					if !slices.Equal(got, want) {
						t.Fatalf("%s, K=%d, %d cells, %d winning: row sets\n%x\nscatter\n%x", name, k, cells, winning, got, want)
					}
				}
			}
		}
	}
}

// TestGroupingWinnersRepeatedCell: when the duplicate filter lists a cell
// twice, the later entry wins no row and grouping.winners drops it.
func TestGroupingWinnersRepeatedCell(t *testing.T) {
	const k = 200
	fam, _ := minhash.NewFamily(k, 10)
	var w minhash.Winners
	a := uint64(1)
	for b := uint64(2); len(w.Cells) != 3; b++ {
		fam.SketchWinners([]uint64{a, b, a}, &w)
	}
	if w.Cells[0] != w.Cells[2] {
		t.Fatalf("cells %x, want a, b, a", w.Cells)
	}
	nw := (k + 63) / 64
	want := make([]uint64, 3*nw)
	rowSetsGo(want, w.Row)
	var g grouping
	g.winners(&w, nw)
	if !slices.Equal(g.cells, w.Cells[:2]) || !slices.Equal(g.rows, want[:2*nw]) {
		t.Fatalf("cells %x with row sets %x, want %x with %x", g.cells, g.rows, w.Cells[:2], want[:2*nw])
	}
}

// BenchmarkRowSets turns one basic window's winners, 5 cells over K = 800
// rows, into row sets by the scalar scatter and by vector compares, cycling
// through many windows. A routine this CPU lacks is skipped. It reports ns
// per window.
func BenchmarkRowSets(b *testing.B) {
	const k, cells = 800, 5
	rng := rand.New(rand.NewSource(5))
	windows := make([][]uint16, 512)
	for i := range windows {
		windows[i] = make([]uint16, k)
		for j := range windows[i] {
			windows[i][j] = uint16(rng.Intn(cells))
		}
	}
	rows := make([]uint64, cells*((k+63)/64))
	kernels := map[string]func([]uint64, []uint16){"scatter": rowSetsGo}
	for _, f := range vectorRowSets() {
		kernels["compare"] = f
	}
	for _, name := range []string{"scatter", "compare"} {
		b.Run(name, func(b *testing.B) {
			f := kernels[name]
			if f == nil {
				b.Skipf("no %s routine on this CPU", name)
			}
			for i := 0; i < b.N; i++ {
				f(rows, windows[i%len(windows)])
			}
		})
	}
}
