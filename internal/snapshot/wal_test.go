package snapshot

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vdsms/internal/qindex"
)

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWAL(path, 0xDEAD, 500)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]uint64{
		{1, 2, 3},
		{0, math.MaxUint64, 1 << 40},
		{7},
	}
	var want []uint64
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if w.Frames != len(want) {
		t.Errorf("Frames = %d, appended %d", w.Frames, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != 1 || l.Fingerprint != 0xDEAD || l.BaseFrame != 500 {
		t.Errorf("header (v=%d fp=%x base=%d), want (v=1 fp=dead base=500)", l.Version, l.Fingerprint, l.BaseFrame)
	}
	if !reflect.DeepEqual(l.Frames, want) || len(l.Plane) != 0 {
		t.Errorf("replayed %v / %v, appended %v", l.Frames, l.Plane, want)
	}
}

// mixedLog writes a version 2 log that interleaves frames with every kind
// of plane record, and returns the records it should replay to together
// with the file offset at which each record ends and whether it is a frame.
func mixedLog(t testing.TB, path string) (want Log, ends []int64, isFrame []bool) {
	t.Helper()
	w, err := CreateWALExtending(path, 0xBEEF, 40, 0x1DE27171)
	if err != nil {
		t.Fatal(err)
	}
	want = Log{Version: 2, Fingerprint: 0xBEEF, BaseFrame: 40, Extends: 0x1DE27171}
	frames := func(ids ...uint64) {
		// One Append per frame so that every record boundary is known.
		for _, id := range ids {
			if err := w.Append([]uint64{id}); err != nil {
				t.Fatal(err)
			}
			ends, isFrame = append(ends, w.Size()), append(isFrame, true)
		}
		want.Frames = append(want.Frames, ids...)
	}
	plane := func(op PlaneOp) {
		var err error
		if op.Remove {
			err = w.LogRemove(op.IDs[0])
		} else {
			err = w.LogAdd(op.IDs, op.Cells)
		}
		if err != nil {
			t.Fatal(err)
		}
		ends, isFrame = append(ends, w.Size()), append(isFrame, false)
		op.At = len(want.Frames)
		want.Plane = append(want.Plane, op)
	}
	plane(PlaneOp{IDs: []int{7}, Cells: [][]uint64{{300, 9, 1 << 50}}}) // before any frame
	frames(300, 9)
	plane(PlaneOp{Remove: true, IDs: []int{7}})
	plane(PlaneOp{IDs: []int{-3, 1 << 40}, Cells: [][]uint64{{0}, {math.MaxUint64, 2, 2}}}) // a batch
	frames(1 << 50)
	plane(PlaneOp{Remove: true, IDs: []int{-3}})
	plane(PlaneOp{IDs: []int{}, Cells: [][]uint64{}}) // an empty batch
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want, ends, isFrame
}

// holdsPrefix reports whether l holds exactly the first nf frames and np
// plane records of whole.
func holdsPrefix(l, whole *Log, nf, np int) bool {
	return len(l.Frames) == nf && len(l.Plane) == np &&
		slices.Equal(l.Frames, whole.Frames[:nf]) &&
		(np == 0 || reflect.DeepEqual(l.Plane, whole.Plane[:np]))
}

func TestWALPlaneRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	want, ends, _ := mixedLog(t, path)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != ends[len(ends)-1] {
		t.Errorf("WAL.Size() = %d, file holds %d bytes", ends[len(ends)-1], st.Size())
	}
	got, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("replayed\n%+v\nwant\n%+v", *got, want)
	}

	// Replay hands the records over in log order.
	var order []string
	err = got.Replay(func(ids []uint64) {
		for range ids {
			order = append(order, "f")
		}
	}, func(op PlaneOp) error {
		if op.Remove {
			order = append(order, "r")
		} else {
			order = append(order, "a")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := strings.Join(order, ""); s != "affrafra" {
		t.Errorf("replay order %q, want %q", s, "affrafra")
	}
}

// TestWALTornTail simulates a crash mid-append by truncating a log at every
// byte: the replay never fails, and yields exactly the records that lie
// whole before the cut — for frame and plane records alike.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	want, ends, isFrame := mixedLog(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		l, err := parseLog(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if cut < walHeaderSizeV2 {
			// Truncating into the header replays as empty, not as an error.
			if l.Version != 0 || !l.Empty() {
				t.Errorf("header cut at %d: %+v", cut, l)
			}
			continue
		}
		nf, np := 0, 0
		for i, end := range ends {
			if end > int64(cut) {
				break
			}
			if isFrame[i] {
				nf++
			} else {
				np++
			}
		}
		if !holdsPrefix(l, &want, nf, np) {
			t.Errorf("cut at %d: replayed %v and %+v, want the first %d and %d of %v and %+v",
				cut, l.Frames, l.Plane, nf, np, want.Frames, want.Plane)
		}
	}
}

// TestWALCorruptMarker: a byte that is no record marker where a record
// should begin — and every other way a log can be malformed without being a
// torn tail — fails the replay loudly.
func TestWALCorruptMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	_, ends, _ := mixedLog(t, path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(off int, b byte) []byte {
		d := append([]byte(nil), data...)
		d[off] = b
		return d
	}
	cases := map[string][]byte{
		"clobbered frame marker":      mutate(int(ends[0]), 0x00),
		"clobbered plane marker":      mutate(walHeaderSizeV2, 0xFF),
		"flipped payload byte":        mutate(walHeaderSizeV2+3, data[walHeaderSizeV2+3]^0x10),
		"flipped CRC byte":            mutate(int(ends[0])-1, data[ends[0]-1]^0x01),
		"frame marker on plane":       mutate(int(ends[2]), walMarker),
		"unknown version":             mutate(5, 9),
		"wrong magic":                 mutate(0, 'X'),
		"plane record in a v1 header": append(append([]byte(nil), mutate(5, 1)[:walHeaderSize]...), data[walHeaderSizeV2:]...),
		"overlong varint":             append(data[:ends[len(ends)-1]:ends[len(ends)-1]], walMarker, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
	}
	for name, d := range cases {
		if l, err := parseLog(d); err == nil {
			t.Errorf("%s: replayed without error: %+v", name, l)
		}
	}
}

func TestWALMissingFile(t *testing.T) {
	l, err := ReplayWAL(filepath.Join(t.TempDir(), "nope"))
	if err != nil || l.Version != 0 || !l.Empty() {
		t.Errorf("missing WAL: %+v err=%v", l, err)
	}
}

// TestWALClosed: an append the file cannot take is an error and leaves the
// log's accounting alone.
func TestWALClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := CreateWALExtending(path, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.LogAdd([]int{1}, [][]uint64{{5}}); err == nil {
		t.Error("LogAdd on a closed WAL succeeded")
	}
	if err := w.Append([]uint64{5}); err == nil {
		t.Error("Append on a closed WAL succeeded")
	}
	if w.Size() != walHeaderSizeV2 || w.Frames != 0 {
		t.Errorf("failed appends counted: size %d frames %d", w.Size(), w.Frames)
	}
}

// FuzzReplayWAL feeds arbitrary bytes to the log reader. It must never
// panic; what it accepts must be well-formed and replayable in order; and —
// the torn-tail contract — cutting an accepted log short anywhere must give
// an accepted log holding a prefix of its records, never an error.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "wal")
	mixedLog(f, path)
	v2, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	w, err := CreateWAL(path, 3, 9)
	if err != nil {
		f.Fatal(err)
	}
	w.Append([]uint64{1, 1 << 33, math.MaxUint64})
	w.Close()
	v1, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// An add record of a query given by its sketch, the codec's entry for a
	// query that arrived through an older format: no log holds one.
	if w, err = CreateWALExtending(path, 3, 9, 1); err != nil {
		f.Fatal(err)
	}
	w.logPlane(walMarkerAdd, AppendQueries(nil, []qindex.Query{{ID: 4, Length: 3, Sketch: []uint64{1, 2, 1 << 60}}}))
	w.Close()
	tagged, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := parseLog(tagged); err == nil {
		f.Fatal("a log holding a query by its sketch was accepted")
	}
	f.Add(tagged)
	f.Add([]byte{})
	f.Add(v1)
	f.Add(v2)
	f.Add(v2[:len(v2)-3])
	f.Add(append(append([]byte(nil), v2...), walMarkerAdd, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)) // length far past the end
	f.Add(append(append([]byte(nil), v1...), v2[walHeaderSizeV2:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := parseLog(data)
		if err != nil {
			return
		}
		at := 0
		for _, op := range l.Plane {
			if op.At < at || op.At > len(l.Frames) {
				t.Fatalf("plane record placed at %d (previous %d, %d frames)", op.At, at, len(l.Frames))
			}
			at = op.At
			if op.Remove && len(op.IDs) != 1 || !op.Remove && len(op.IDs) != len(op.Cells) {
				t.Fatalf("ill-formed plane record %+v", op)
			}
		}
		frames, ops := 0, 0
		l.Replay(func(ids []uint64) { frames += len(ids) }, func(PlaneOp) error { ops++; return nil })
		if frames != len(l.Frames) || ops != len(l.Plane) {
			t.Fatalf("replay visited %d frames and %d changes of %d and %d", frames, ops, len(l.Frames), len(l.Plane))
		}
		step := 1 + len(data)/64
		for cut := len(data) - 1; cut >= 0; cut -= step {
			p, err := parseLog(data[:cut])
			if err != nil {
				t.Fatalf("cut at %d of an accepted log: %v", cut, err)
			}
			if len(p.Frames) > len(l.Frames) || len(p.Plane) > len(l.Plane) ||
				!holdsPrefix(p, l, len(p.Frames), len(p.Plane)) {
				t.Fatalf("cut at %d: records are not a prefix of the whole log's", cut)
			}
		}
	})
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	// No temp litter.
	entries, _ := os.ReadDir(filepath.Dir(path))
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
}
