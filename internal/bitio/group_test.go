package bitio

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

type namedLaneWalker struct {
	name string
	walk laneWalker
}

// laneWalkers returns the group kernels this CPU runs, named: the serial
// twin, then the vector routine where there is one. Read at call time: the
// routine is installed by an init function.
func laneWalkers(tb testing.TB) []namedLaneWalker {
	v := vectorLaneWalkers()
	if len(v) == 0 {
		tb.Logf("no vector group kernel on this CPU: testing the serial twin only")
	}
	return append([]namedLaneWalker{{"serial", walkLanesSerial}}, v...)
}

// lanesAgree runs every group kernel over lanes that start at bit pos[i] of
// data[i] with size[i] slots of scratch, and requires of each lane what
// walkBlocksGo gives by itself through Reader.walk: block count, cursor and
// every slot.
func lanesAgree(t *testing.T, data [][]byte, pos []int, size []int, mark uint64) {
	t.Helper()
	want := make([]Lane, len(data))
	for i := range want {
		want[i] = Lane{R: Reader{data: data[i], pos: pos[i]}, Deltas: scratchSlots(size[i])}
		want[i].N = want[i].R.walk(walkBlocksGo, want[i].Deltas, mark)
	}
	for _, k := range laneWalkers(t) {
		got := make([]Lane, len(data))
		for i := range got {
			got[i] = Lane{R: Reader{data: data[i], pos: pos[i]}, Deltas: scratchSlots(size[i]), N: -7}
		}
		k.walk(got, mark)
		for i := range got {
			g, w := &got[i], &want[i]
			if g.N != w.N || g.R.pos != w.R.pos || !slices.Equal(g.Deltas, w.Deltas) {
				t.Fatalf("%s, lane %d of %d (%d bytes from bit %d, %d slots): %d blocks to bit %d, deltas %v; walkBlocksGo %d to %d, %v",
					k.name, i, len(got), len(data[i]), pos[i], size[i], g.N, g.R.pos, g.Deltas, w.N, w.R.pos, w.Deltas)
			}
		}
	}
}

// groupAgrees runs DCBlocksGroup on every group kernel over lanes from the
// first bit of data[i] into size[i] slots, and requires of each lane what
// DCBlocks on the Go twin gives by itself: block count, error, cursor and
// every slot.
func groupAgrees(t *testing.T, data [][]byte, size []int, eob uint64) {
	t.Helper()
	want := make([]Lane, len(data))
	for i := range want {
		l := &want[i]
		l.R.Reset(data[i])
		l.Deltas = scratchSlots(size[i])
		l.N, l.Err = l.R.dcBlocks(l.Deltas, eob, walkBlocksGo)
	}
	for _, k := range laneWalkers(t) {
		got := make([]Lane, len(data))
		for i := range got {
			got[i].R.Reset(data[i])
			got[i].Deltas = scratchSlots(size[i])
		}
		dcBlocksGroup(got, eob, k.walk)
		for i := range got {
			g, w := &got[i], &want[i]
			if g.N != w.N || (g.Err == nil) != (w.Err == nil) || g.Err != nil && g.Err.Error() != w.Err.Error() ||
				g.R.pos != w.R.pos || !slices.Equal(g.Deltas, w.Deltas) {
				t.Fatalf("%s, lane %d of %d (%d bytes, %d slots): %d blocks, %v, bit %d, deltas %v; DCBlocks %d, %v, %d, %v",
					k.name, i, len(got), len(data[i]), size[i], g.N, g.Err, g.R.pos, g.Deltas, w.N, w.Err, w.R.pos, w.Deltas)
			}
		}
	}
}

// groupLanes cuts 1 to GroupLanes lanes out of data as seed says: spans of
// any length (short, empty, overlapping), a start bit inside the first two
// bytes where there is room for a load, and 0 to twice as many slots as the
// span could hold blocks.
func groupLanes(data []byte, lanes uint8, seed int64) (spans [][]byte, pos, size []int) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(lanes)%GroupLanes
	for i := 0; i < n; i++ {
		a := rng.Intn(len(data) + 1)
		b := a + rng.Intn(len(data)-a+1)
		if rng.Intn(3) > 0 { // mostly lanes of whole payloads, as a window's are
			a, b = 0, len(data)-rng.Intn(min(len(data), 9)+1)
		}
		p := 0
		if b-a >= 8 && rng.Intn(2) == 0 {
			p = rng.Intn(16)
		}
		spans = append(spans, data[a:b])
		pos = append(pos, p)
		size = append(size, rng.Intn(2*(b-a)+2))
	}
	return spans, pos, size
}

// groupSeeds are payloads for the group kernels: the skip seeds (a real
// I-frame and its cuts, long-code and malformed inputs), runs of codes of 15
// to 28 bits and over 28, and lanes that stop at their first step — a first
// code over 28 bits, a payload of exactly one load.
func groupSeeds(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(18))
	seeds := skipSeeds(tb)
	for _, level := range []int64{6, 5000, 1 << 13, 1 << 20} {
		p := blockPayload(rng, 20, level)
		seeds = append(seeds, p, p[:len(p)*2/3])
	}
	w := NewWriter(64)
	w.WriteSE(1 << 20) // a 43-bit DC delta: the kernel stops at step 0
	w.WriteUE(testEOB)
	w.WriteBits(0, 64)
	seeds = append(seeds, bytes.Clone(w.Bytes()), realIFrame(tb)[:8])
	return seeds
}

// FuzzDCBlocksGroup: 1 to 16 lanes cut from arbitrary bytes walk to the
// same counts, cursors and slots on every group kernel as on the frame-level
// Go twin alone, called directly and through DCBlocksGroup.
func FuzzDCBlocksGroup(f *testing.F) {
	for i, s := range groupSeeds(f) {
		f.Add(s, uint8(i), int64(i))
		f.Add(s, uint8(15), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, lanes uint8, seed int64) {
		spans, pos, size := groupLanes(data, lanes, seed)
		lanesAgree(t, spans, pos, size, testEOB+1)
		groupAgrees(t, spans, size, testEOB)
	})
}

// TestGroupVsReference runs the group fuzz seeds, each as 1 to 16 lanes,
// and windows of random payloads as an ordinary test.
func TestGroupVsReference(t *testing.T) {
	for i, s := range groupSeeds(t) {
		for lanes := uint8(0); lanes < GroupLanes; lanes++ {
			spans, pos, size := groupLanes(s, lanes, int64(i))
			lanesAgree(t, spans, pos, size, testEOB+1)
			groupAgrees(t, spans, size, testEOB)
		}
	}
	rng := rand.New(rand.NewSource(19))
	for it := 0; it < 300; it++ {
		n := 1 + rng.Intn(GroupLanes)
		data, pos, size := make([][]byte, n), make([]int, n), make([]int, n)
		for i := range data {
			blocks := 1 + rng.Intn(30)
			data[i] = blockPayload(rng, blocks, []int64{1, 6, 40, 5000}[rng.Intn(4)])
			if rng.Intn(4) == 0 {
				data[i] = data[i][:rng.Intn(len(data[i])+1)]
			}
			size[i] = []int{blocks - 1, blocks, blocks + 1, rng.Intn(40)}[rng.Intn(4)]
			size[i] = max(size[i], 0)
		}
		lanesAgree(t, data, pos, size, testEOB+1)
		groupAgrees(t, data, size, testEOB)
	}
}
