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
// whole, to the same deltas and cursor.
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
}
