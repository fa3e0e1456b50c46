package vdsms

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vdsms/internal/mpeg"
	"vdsms/internal/workload"
)

// TestPushSegmentValidatesFirst: a segment at an incompatible key-frame rate
// is refused with Monitor's error on the strength of its header — no frame
// is read, let alone parsed, so a segment whose first payload is garbage
// still gets the rate error, not a decode error.
func TestPushSegmentValidatesFirst(t *testing.T) {
	var seg bytes.Buffer
	if err := Synthesize(&seg, VideoOptions{Seconds: 1, FPS: 8, W: 96, H: 80, Quality: 80, GOP: 1}); err != nil {
		t.Fatal(err)
	}
	data := seg.Bytes()
	spans, err := mpeg.Frames(data)
	if err != nil {
		t.Fatal(err)
	}
	first := data[spans[0].Off+mpeg.FrameHeaderBytes:][:spans[0].PayloadLen]
	for i := range first {
		first[i] = 0 // one endless zero run: "malformed Exp-Golomb code" if parsed
	}

	det, err := NewDetector(testConfig()) // 2 key frames/s
	if err != nil {
		t.Fatal(err)
	}
	_, want := det.Monitor(bytes.NewReader(data))
	if want == nil || !strings.Contains(want.Error(), "key-frame rate 8.00/s incompatible with configured 2.00/s") {
		t.Fatalf("Monitor: %v, want the key-frame rate error", want)
	}
	fl, err := det.NewFleet(FleetConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fs, err := fl.Attach("cam")
	if err != nil {
		t.Fatal(err)
	}
	in := bytes.NewReader(data)
	if err := fs.PushSegment(in); err == nil || err.Error() != want.Error() {
		t.Errorf("PushSegment: %v, want %v", err, want)
	}
	if read := len(data) - in.Len(); read != mpeg.HeaderBytes {
		t.Errorf("PushSegment read %d bytes before refusing the segment, want the %d-byte stream header", read, mpeg.HeaderBytes)
	}
	if fs.Pending() != 0 || fs.Stats().Frames != 0 {
		t.Error("a refused segment left frames behind")
	}
}

// TestFrontEndAllocations pins the front end's allocation contract: from the
// second frame on, bytes to cell id — NextInto, VectorInto, CellInto through
// pipeline.next — allocates nothing, and what a Monitor or PushSegment call
// allocates around its frames is a small constant that does not grow with
// the segment.
func TestFrontEndAllocations(t *testing.T) {
	stream := clip(t, 5, 60) // 120 key frames
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(clip(t, 6, 10))); err != nil {
		t.Fatal(err)
	}

	pd, err := mpeg.NewPartialDecoder(bytes.NewReader(append(bytes.Clone(stream), stream[mpeg.HeaderBytes:]...)))
	if err != nil {
		t.Fatal(err)
	}
	var fe frontEnd
	for i := 0; i < 120; i++ { // the first pass meets the largest frame
		if _, err := det.pipeline.next(pd, &fe); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := det.pipeline.next(pd, &fe); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pipeline.next allocates %v times per frame, want 0", n)
	}

	// One basic window and six of them, so that the kernel's own per-window
	// allocations can be told from the front end's per-call ones.
	segment := func(frames int) []byte {
		spans, err := mpeg.Frames(stream)
		if err != nil {
			t.Fatal(err)
		}
		return stream[:spans[frames].Off]
	}
	one, six := segment(10), segment(60)
	if _, err := det.Monitor(bytes.NewReader(six)); err != nil { // warm: buffers sized, plan built
		t.Fatal(err)
	}
	monitor := func(seg []byte) float64 {
		r := bytes.NewReader(seg)
		return testing.AllocsPerRun(20, func() {
			r.Reset(seg)
			if _, err := det.Monitor(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	// perCall is a call's allocations less its windows' (the kernel's, plus
	// for PushSegment the growth of the id slice).
	perCall := func(call func([]byte) float64) float64 {
		a, b := call(one), call(six)
		return a - (b-a)/5
	}
	if n := perCall(monitor); n > 6 {
		t.Errorf("Monitor allocates %.1f times per call beyond its windows' work, want at most 6", n)
	}

	fl, err := det.NewFleet(FleetConfig{Workers: 1, QueueWindows: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fs, err := fl.Attach("cam")
	if err != nil {
		t.Fatal(err)
	}
	push := func(seg []byte) float64 {
		r := bytes.NewReader(seg)
		return testing.AllocsPerRun(20, func() {
			r.Reset(seg)
			if err := fs.PushSegment(r); err != nil {
				t.Fatal(err)
			}
			fl.Drain() // the count is process-wide: let the worker finish inside it
		})
	}
	if n := perCall(push); n > 12 {
		t.Errorf("PushSegment allocates %.1f times per call beyond its windows' work, want at most 12", n)
	}
}

// TestFleetStreamsOfTwoGeometries pushes segments of two resolutions from
// concurrent producers through one fleet — one shared extractor, so one plan
// list — and requires each stream's matches to be those a detector of its
// own finds in the same bytes. Run under -race in CI.
func TestFleetStreamsOfTwoGeometries(t *testing.T) {
	synth := func(seed int64, seconds float64, w, h int) []byte {
		var buf bytes.Buffer
		if err := Synthesize(&buf, VideoOptions{Seconds: seconds, FPS: 2, W: w, H: h, Seed: seed, Quality: 80, GOP: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	geoms := [][2]int{{96, 80}, {112, 96}}
	queries := [][]byte{synth(71, 15, 96, 80), synth(72, 15, 112, 96)}
	feeds := make([][][]byte, 4) // stream → segments
	for s := range feeds {
		g := geoms[s%2]
		feeds[s] = [][]byte{synth(int64(800+s), 20, g[0], g[1]), queries[s%2], synth(int64(900+s), 20, g[0], g[1])}
	}
	subscribe := func(add func(int, io.Reader) error) {
		for i, q := range queries {
			if err := add(i+1, bytes.NewReader(q)); err != nil {
				t.Fatal(err)
			}
		}
	}

	want := make([][]Match, len(feeds))
	for s, segs := range feeds {
		det, err := NewDetector(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		subscribe(det.AddQuery)
		for _, seg := range segs {
			m, err := det.Monitor(bytes.NewReader(seg))
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], m...)
		}
		if len(want[s]) == 0 {
			t.Fatalf("stream %d: reference run found no matches", s)
		}
	}

	fl, err := NewFleet(testConfig(), FleetConfig{Workers: 2, QueueWindows: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	subscribe(fl.AddQuery)
	streams := make([]*FleetStream, len(feeds))
	for s := range feeds {
		if streams[s], err = fl.Attach(string(rune('a' + s))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for s, segs := range feeds {
		wg.Add(1)
		go func(fs *FleetStream, segs [][]byte) {
			defer wg.Done()
			for i, seg := range segs {
				if err := fs.PushSegment(bytes.NewReader(seg)); err != nil {
					t.Errorf("stream %s segment %d: %v", fs.ID(), i, err)
					return
				}
				fl.Drain() // a 40-frame segment fills a quarter of the queue; keep the next from backpressure
			}
		}(streams[s], segs)
	}
	wg.Wait()
	for s, fs := range streams {
		fs.Detach(true)
		if got := fs.Matches(); !reflect.DeepEqual(got, want[s]) {
			t.Errorf("stream %d (%dx%d): fleet matches diverge from Monitor:\n got %+v\nwant %+v", s, geoms[s%2][0], geoms[s%2][1], got, want[s])
		}
	}
}

// BenchmarkFrontEnd is MVC1 bytes to cell ids over every one-window segment
// of a workload.Build stream in turn, so that — unlike a micro-benchmark
// over one fixed frame, whose branches the predictor learns — the entropy
// walk meets fresh codes on every iteration, as it does in service.
// "streaming" is the path Monitor, PushSegment and AddQuery share;
// "owning" is the same code through the wrappers that allocate what they
// return (ReadAllDC, Vector), which bench/replay.go's layer spans time.
func BenchmarkFrontEnd(b *testing.B) {
	wl := workload.Build(workload.Config{NumShorts: 6, Seed: 1201})
	var buf bytes.Buffer
	if _, err := mpeg.EncodeSource(&buf, wl.Stream, wl.Cfg.Quality, 1); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	spans, err := mpeg.Frames(data)
	if err != nil {
		b.Fatal(err)
	}
	const window = 10
	var segments [][]byte
	for i := 0; i+window <= len(spans); i += window {
		end := len(data)
		if i+window < len(spans) {
			end = spans[i+window].Off
		}
		segments = append(segments, append(bytes.Clone(data[:mpeg.HeaderBytes]), data[spans[i].Off:end]...))
	}
	det, err := NewDetector(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := det.pipeline
	var sink uint64
	b.Run("streaming", func(b *testing.B) {
		var fe frontEnd
		r := bytes.NewReader(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(segments[i%len(segments)])
			pd, err := mpeg.NewPartialDecoder(r)
			if err != nil {
				b.Fatal(err)
			}
			for {
				id, err := p.next(pd, &fe)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				sink += id
			}
		}
	})
	b.Run("owning", func(b *testing.B) {
		scratch := make([]float64, p.pt.D)
		r := bytes.NewReader(nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(segments[i%len(segments)])
			dcs, _, err := mpeg.ReadAllDC(r)
			if err != nil {
				b.Fatal(err)
			}
			for _, dcf := range dcs {
				sink += p.pt.CellInto(p.ex.Vector(dcf), scratch)
			}
		}
	})
	_ = sink
}
