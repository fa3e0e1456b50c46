package vdsms

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vdsms/internal/fleet"
)

// TestFleetMatchesMonitor pins the facade-level equivalence: a fleet stream
// fed a feed segment by segment reports the same matches as Detector.Monitor
// consuming the identical bytes in one pass.
func TestFleetMatchesMonitor(t *testing.T) {
	query := clip(t, 61, 20)
	var feed bytes.Buffer
	err := ComposeStream(&feed, 80, 1,
		bytes.NewReader(clip(t, 600, 30)),
		bytes.NewReader(query),
		bytes.NewReader(clip(t, 601, 30)))
	if err != nil {
		t.Fatal(err)
	}

	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.AddQuery(1, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	want, err := det.Monitor(bytes.NewReader(feed.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("Monitor reference run found no matches")
	}

	// Each PushSegment body must be a self-contained MVC1 stream, so the
	// feed is re-encoded into standalone segments split at clip boundaries.
	var segments [][]byte
	for _, seg := range [][]byte{clip(t, 600, 30), query, clip(t, 601, 30)} {
		var one bytes.Buffer
		if err := ComposeStream(&one, 80, 1, bytes.NewReader(seg)); err != nil {
			t.Fatal(err)
		}
		segments = append(segments, one.Bytes())
	}

	// Whichever goroutines run the windows — the workers, one draining
	// caller, two, or the detaching caller alone — every stream answers as
	// Monitor did.
	finishes := []struct {
		name string
		fn   func(fl *Fleet)
	}{
		{"drain", func(fl *Fleet) { fl.Drain() }},
		{"two drains", func(fl *Fleet) {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() { defer wg.Done(); fl.Drain() }()
			}
			wg.Wait()
		}},
		{"detach", func(*Fleet) {}},
	}
	for _, workers := range []int{1, 3} {
		for _, f := range finishes {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, f.name), func(t *testing.T) {
				fl, err := NewFleet(testConfig(), FleetConfig{Workers: workers, QueueWindows: 32})
				if err != nil {
					t.Fatal(err)
				}
				defer fl.Close()
				if err := fl.AddQuery(1, bytes.NewReader(query)); err != nil {
					t.Fatal(err)
				}
				streams := make([]*FleetStream, 4)
				for i := range streams {
					if streams[i], err = fl.Attach(fmt.Sprintf("cam-%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				for i, seg := range segments {
					for _, fs := range streams {
						if err := fs.PushSegment(bytes.NewReader(seg)); err != nil {
							t.Fatalf("segment %d: %v", i, err)
						}
					}
				}
				f.fn(fl)
				for _, fs := range streams {
					fs.Detach(true)
					if got := fs.Matches(); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: fleet matches diverge from Monitor:\n got %+v\nwant %+v", fs.ID(), got, want)
					}
					if st := fs.Stats(); st.Frames != 160 {
						t.Errorf("%s: frames = %d, want 160", fs.ID(), st.Frames)
					}
				}
				var frames int64
				for _, w := range fl.WorkerStats() {
					frames += w.Frames
				}
				if frames != 160*int64(len(streams)) {
					t.Errorf("runner rows count %d frames, want %d", frames, 160*len(streams))
				}
			})
		}
	}
}

// TestFleetClosedRejectsSegments: a closed fleet refuses a segment with the
// pool's error, and a caller that then waits on it is not left hanging.
func TestFleetClosedRejectsSegments(t *testing.T) {
	fl, err := NewFleet(testConfig(), FleetConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fl.Attach("cam-1")
	if err != nil {
		t.Fatal(err)
	}
	fl.Close()
	if err := fs.PushSegment(bytes.NewReader(clip(t, 602, 12))); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("PushSegment on a closed fleet: %v", err)
	}
	if got := fs.Pending(); got != 0 {
		t.Fatalf("refused segment left %d frames queued", got)
	}
	fl.Drain()
	fs.Detach(true)
}

// TestFleetBadSegment checks the facade-level guards around PushSegment.
func TestFleetBadSegment(t *testing.T) {
	fl, err := NewFleet(testConfig(), FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fs, err := fl.Attach("cam-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PushSegment(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage segment accepted")
	}
	// Wrong key-frame cadence: 24 fps GOP 1 → 24 key frames/s vs KeyFPS 2.
	var fast bytes.Buffer
	err = Synthesize(&fast, VideoOptions{
		Seconds: 2, FPS: 24, W: 96, H: 80, Seed: 9, Quality: 80, GOP: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PushSegment(bytes.NewReader(fast.Bytes())); err == nil {
		t.Error("incompatible key-frame rate accepted")
	}
	if st := fs.Stats(); st.Frames != 0 {
		t.Errorf("rejected segments fed %d frames", st.Frames)
	}
	if _, err := fl.Attach("cam-1"); !errors.Is(err, ErrDuplicateStream) {
		t.Errorf("duplicate attach: %v", err)
	}
}
