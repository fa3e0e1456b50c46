package bitio_test

import (
	"bytes"
	"slices"
	"testing"

	"vdsms/internal/bitio"
	"vdsms/internal/mpeg"
	"vdsms/internal/workload"
)

// corpusEOB is the codec's end-of-block run (mpeg.eobRun).
const corpusEOB = 63

// corpusIFrames returns the payloads of the benchmark corpus's monitored
// stream, built as bench/corpus.go builds it (workload.Build at the default
// seed with 20 shorts, then mpeg.EncodeSource, one I-frame a key frame), and
// the luma blocks of one frame.
func corpusIFrames(tb testing.TB) (payloads [][]byte, blocks int) {
	tb.Helper()
	wl := workload.Build(workload.Config{NumShorts: 20, Seed: 20080407})
	var buf bytes.Buffer
	hdr, err := mpeg.EncodeSource(&buf, wl.Stream, wl.Cfg.Quality, 1)
	if err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	spans, err := mpeg.Frames(data)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range spans {
		off := s.Off + mpeg.FrameHeaderBytes
		payloads = append(payloads, data[off:off+s.PayloadLen])
	}
	return payloads, (hdr.W / 8) * (hdr.H / 8)
}

// BenchmarkDCBlocksCorpus walks the luma plane of every I-frame of the
// benchmark corpus in turn — fresh codes on every call, as in service — on
// the Go twin and on the kernel DCBlocks dispatches to (the assembly
// routine on amd64). It reports ns per frame.
func BenchmarkDCBlocksCorpus(b *testing.B) {
	payloads, blocks := corpusIFrames(b)
	deltas := make([]int64, blocks)
	for _, k := range []struct {
		name string
		walk func(*bitio.Reader, []int64, uint64) (int, error)
	}{{"go", bitio.DCBlocksGo}, {"asm", (*bitio.Reader).DCBlocks}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n, err := k.walk(bitio.NewReader(payloads[i%len(payloads)]), deltas, corpusEOB); n != blocks || err != nil {
					b.Fatalf("frame %d: %d of %d blocks, %v", i%len(payloads), n, blocks, err)
				}
			}
		})
	}
}

// TestDCBlocksCorpus: every kernel walks every corpus frame's luma plane
// whole, to the same deltas and cursor. Then every 10-frame window (the
// key frames of one basic window) and every 1- to 16-frame prefix of every
// 16-frame run are walked as lanes by every frame-level and group kernel,
// into exactly the luma's slots and into one slot more (a scratch slot the
// walk goes on into, over chroma codes): the same block counts, cursors and
// slots as the Go twin's.
func TestDCBlocksCorpus(t *testing.T) {
	payloads, blocks := corpusIFrames(t)
	want, got := make([]int64, blocks), make([]int64, blocks)
	for i, p := range payloads {
		rg, r := bitio.NewReader(p), bitio.NewReader(p)
		nw, errw := bitio.DCBlocksGo(rg, want, corpusEOB)
		n, err := r.DCBlocks(got, corpusEOB)
		if n != blocks || nw != blocks || err != nil || errw != nil {
			t.Fatalf("frame %d: %d and %d of %d blocks, %v, %v", i, n, nw, blocks, err, errw)
		}
		if !slices.Equal(got, want) || r.Remaining() != rg.Remaining() {
			t.Fatalf("frame %d: dispatch and Go twin differ", i)
		}
	}
	kernels := bitio.LaneKernels(t)
	walk := func(k bitio.LaneKernel, frames [][]byte, slots int) []bitio.Lane {
		lanes := make([]bitio.Lane, len(frames))
		for i, p := range frames {
			lanes[i].R.Reset(p)
			lanes[i].Deltas = make([]int64, slots)
			lanes[i].Deltas[slots-1] = -1 // a value no walk stores
		}
		k.Walk(lanes, corpusEOB+1)
		return lanes
	}
	check := func(first int, frames [][]byte) {
		for _, slots := range []int{blocks, blocks + 1} {
			want := walk(kernels[0], frames, slots)
			for _, k := range kernels[1:] {
				for i, l := range walk(k, frames, slots) {
					w := want[i]
					if l.N != w.N || l.R.Remaining() != w.R.Remaining() || !slices.Equal(l.Deltas, w.Deltas) {
						t.Fatalf("%s, frame %d as lane %d of %d, %d slots: %d blocks, %d bits left; Go twin %d, %d",
							k.Name, first+i, i, len(frames), slots, l.N, l.R.Remaining(), w.N, w.R.Remaining())
					}
				}
			}
		}
	}
	const window = 10
	for first := 0; first+window <= len(payloads); first += window {
		check(first, payloads[first:first+window])
	}
	for first := 0; first+bitio.GroupLanes <= len(payloads); first += bitio.GroupLanes {
		for n := 1; n <= bitio.GroupLanes; n++ {
			check(first, payloads[first:first+n])
		}
	}
}

// BenchmarkDCBlocksWindow walks the benchmark corpus a 10-frame window at a
// time — the key frames of one basic window, fresh codes on every call —
// frame by frame on the kernel DCBlocks dispatches to (perframe) and all
// together through DCBlocksGroup (group). It reports ns per window.
func BenchmarkDCBlocksWindow(b *testing.B) {
	payloads, blocks := corpusIFrames(b)
	const window = 10
	windows := len(payloads) / window
	lanes := make([]bitio.Lane, window)
	deltas := make([]int64, window*blocks)
	b.Run("perframe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := payloads[i%windows*window:][:window]
			for j, p := range w {
				if n, err := bitio.NewReader(p).DCBlocks(deltas[j*blocks:(j+1)*blocks], corpusEOB); n != blocks || err != nil {
					b.Fatalf("window %d frame %d: %d of %d blocks, %v", i%windows, j, n, blocks, err)
				}
			}
		}
	})
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := payloads[i%windows*window:][:window]
			for j, p := range w {
				lanes[j].R.Reset(p)
				lanes[j].Deltas = deltas[j*blocks : (j+1)*blocks]
			}
			bitio.DCBlocksGroup(lanes, corpusEOB)
			for j := range lanes {
				if l := &lanes[j]; l.N != blocks || l.Err != nil {
					b.Fatalf("window %d frame %d: %d of %d blocks, %v", i%windows, j, l.N, blocks, l.Err)
				}
			}
		}
	})
}
