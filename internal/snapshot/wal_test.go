package snapshot

import (
	"bytes"
	"fmt"
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

// walRec is one record of a log written by mixedLog: the file offset at
// which it ends and the frames it carries (0 for a plane record).
type walRec struct {
	end    int64
	frames int
}

// mixedLog writes a log of the given version (2 or 3) that interleaves
// frames with every kind of plane record, and returns the records it should
// replay to together with where each record ends. A version 2 log gets one
// Append per frame, so that every record boundary is known; a version 3
// log one per batch, among them a batch that spans several sectors.
func mixedLog(t testing.TB, path string, version int) (want Log, recs []walRec) {
	t.Helper()
	w, err := createWAL(path, uint16(version), 0xBEEF, 40, 0x1DE27171, 0)
	if err != nil {
		t.Fatal(err)
	}
	want = Log{Version: version, Fingerprint: 0xBEEF, BaseFrame: 40, Extends: 0x1DE27171}
	frames := func(ids ...uint64) {
		batches := [][]uint64{ids}
		if version < 3 {
			batches = nil
			for i := range ids {
				batches = append(batches, ids[i:i+1])
			}
		}
		for _, b := range batches {
			if err := w.Append(b); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, walRec{w.Size(), len(b)})
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
		recs = append(recs, walRec{w.Size(), 0})
		op.At = len(want.Frames)
		want.Plane = append(want.Plane, op)
	}
	plane(PlaneOp{IDs: []int{7}, Cells: [][]uint64{{300, 9, 1 << 50}}}) // before any frame
	frames(300, 9)
	plane(PlaneOp{Remove: true, IDs: []int{7}})
	plane(PlaneOp{IDs: []int{-3, 1 << 40}, Cells: [][]uint64{{0}, {math.MaxUint64, 2, 2}}}) // a batch
	frames(1 << 50)
	if version >= 3 {
		big := make([]uint64, 150) // ≈1.4 KB: a record across several sectors
		for i := range big {
			big[i] = math.MaxUint64 - uint64(i)*0x0101_0101
		}
		frames(big...)
	}
	plane(PlaneOp{Remove: true, IDs: []int{-3}})
	plane(PlaneOp{IDs: []int{}, Cells: [][]uint64{}}) // an empty batch
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want, recs
}

// holdsPrefix reports whether l holds exactly the first nf frames and np
// plane records of whole.
func holdsPrefix(l, whole *Log, nf, np int) bool {
	return len(l.Frames) == nf && len(l.Plane) == np &&
		slices.Equal(l.Frames, whole.Frames[:nf]) &&
		(np == 0 || reflect.DeepEqual(l.Plane, whole.Plane[:np]))
}

// prefixCounts returns the frames and plane records of the first n records.
func prefixCounts(recs []walRec, n int) (nf, np int) {
	for _, r := range recs[:n] {
		if r.frames > 0 {
			nf += r.frames
		} else {
			np++
		}
	}
	return nf, np
}

// crashImages returns what a crash can leave of a file that held before
// while after was being written over it and not yet synced: for every
// subset of the 512-byte sectors the write changed, those sectors as in
// after and the others as in before (zeros past before's end).
func crashImages(t testing.TB, before, after []byte) [][]byte {
	t.Helper()
	old := make([]byte, len(after))
	copy(old, before)
	lo, hi := 0, len(after)
	for lo < hi && old[lo] == after[lo] {
		lo++
	}
	for hi > lo && old[hi-1] == after[hi-1] {
		hi--
	}
	if lo == hi {
		return [][]byte{after}
	}
	first, n := lo/512, (hi-1)/512-lo/512+1
	if n > 8 {
		t.Fatalf("a write across %d sectors: too many crash images", n)
	}
	var images [][]byte
	for mask := 0; mask < 1<<n; mask++ {
		img := slices.Clone(old)
		for s := 0; s < n; s++ {
			if mask&(1<<s) != 0 {
				a := (first + s) * 512
				b := min(a+512, len(after))
				copy(img[a:b], after[a:b])
			}
		}
		images = append(images, img)
	}
	return images
}

func TestWALPlaneRoundTrip(t *testing.T) {
	for _, version := range []int{2, 3} {
		path := filepath.Join(t.TempDir(), "wal")
		want, recs := mixedLog(t, path, version)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		size := recs[len(recs)-1].end
		if version == 2 && int64(len(data)) != size {
			t.Errorf("v2: WAL.Size() = %d, file holds %d bytes", size, len(data))
		}
		if version == 3 && (len(data) != walMinPrealloc || !allZero(data[size:])) {
			t.Errorf("v3: a log of %d bytes in a file of %d, zero past its end: %v", size, len(data), allZero(data[size:]))
		}
		got, err := ReplayWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("v%d: replayed\n%+v\nwant\n%+v", version, *got, want)
		}

		// Replay hands the records over in log order.
		var order []string
		err = got.Replay(func(ids []uint64) {
			if len(ids) > 0 {
				order = append(order, fmt.Sprintf("f%d", len(ids)))
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
		wantOrder := "a f2 r a f1 r a"
		if version == 3 {
			wantOrder = "a f2 r a f151 r a"
		}
		if s := strings.Join(order, " "); s != wantOrder {
			t.Errorf("v%d: replay order %q, want %q", version, s, wantOrder)
		}
	}
}

// TestWALPreallocation: a version 3 log is created as its header and zeros
// in whole pages, at least 64 KiB and at least the checkpoint it extends; a
// record past the zeros grows the file.
func TestWALPreallocation(t *testing.T) {
	for _, c := range []struct{ ckpt, want int64 }{
		{0, 64 << 10}, {100, 64 << 10}, {64<<10 + 1, 68 << 10}, {1 << 20, 1 << 20},
	} {
		path := filepath.Join(t.TempDir(), "wal")
		w, err := CreateWALExtending(path, 1, 0, 2, c.ckpt)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil || st.Size() != c.want {
			t.Errorf("checkpoint of %d bytes: file of %d bytes (%v), want %d", c.ckpt, st.Size(), err, c.want)
		}
		w.size = c.want - 3
		if err := w.Append([]uint64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if st, err := os.Stat(path); err != nil || st.Size() != c.want+6 {
			t.Errorf("a record across the end of %d zeros: file of %d bytes, want %d", c.want, st.Size(), c.want+6)
		}
	}
}

// TestWALTornTail: a crash while a record is written leaves a legal image.
// A version 2 log is append-only, so a crash cuts it at any byte; a version
// 3 log is written in place over zeros, so a crash leaves what was synced
// plus any subset of the in-flight write's sectors. Either way the replay
// never fails and yields exactly the records that lie whole in the image —
// for frame and plane records alike, and for none of a torn batch.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	want, recs := mixedLog(t, path, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		l, err := parseLog(data[:cut])
		if err != nil {
			t.Fatalf("v2 cut at %d: %v", cut, err)
		}
		if cut < walHeaderSizeV2 {
			// Truncating into the header replays as empty, not as an error.
			if l.Version != 0 || !l.Empty() {
				t.Errorf("v2 header cut at %d: %+v", cut, l)
			}
			continue
		}
		n := 0
		for n < len(recs) && recs[n].end <= int64(cut) {
			n++
		}
		if nf, np := prefixCounts(recs, n); !holdsPrefix(l, &want, nf, np) {
			t.Errorf("v2 cut at %d: replayed %v and %+v, want the first %d and %d of %v and %+v",
				cut, l.Frames, l.Plane, nf, np, want.Frames, want.Plane)
		}
	}

	want, recs = mixedLog(t, path, 3)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	// The creation write: header and zeros over an empty file.
	created := append(slices.Clone(data[:walHeaderSizeV2]), make([]byte, len(data)-walHeaderSizeV2)...)
	for _, img := range append(crashImages(t, nil, created), []byte{}) {
		l, err := parseLog(img)
		if err != nil || !l.Empty() {
			t.Errorf("creation crash image of %d bytes: %+v, %v", len(img), l, err)
		}
	}
	images := 0
	for i := range recs {
		start := int64(walHeaderSizeV2)
		if i > 0 {
			start = recs[i-1].end
		}
		before := append(slices.Clone(data[:start]), make([]byte, int64(len(data))-start)...)
		after := append(slices.Clone(data[:recs[i].end]), make([]byte, int64(len(data))-recs[i].end)...)
		for _, img := range crashImages(t, before, after) {
			images++
			l, err := parseLog(img)
			if err != nil {
				t.Fatalf("v3 record %d in flight: %v", i, err)
			}
			n := i
			if bytes.Equal(img, after) {
				n++
			}
			if nf, np := prefixCounts(recs, n); !holdsPrefix(l, &want, nf, np) {
				t.Errorf("v3 record %d in flight: replayed %d frames and %d changes, want the first %d and %d",
					i, len(l.Frames), len(l.Plane), nf, np)
			}
		}
	}
	if images < 2*len(recs)+8 {
		t.Errorf("%d crash images of %d records: no record crossed a sector boundary", images, len(recs))
	}
}

// TestWALCorruptMarker: a byte that is no record marker where a record
// should begin — and every other way a log can be malformed without being a
// torn tail — fails the replay loudly, in each version by its own rules.
func TestWALCorruptMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	for _, version := range []int{2, 3} {
		_, recs := mixedLog(t, path, version)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		end := int(recs[len(recs)-1].end)
		mutate := func(off int, b byte) []byte {
			d := append([]byte(nil), data...)
			d[off] = b
			return d
		}
		frameAt := int(recs[0].end) // the first frame record
		cases := map[string][]byte{
			"clobbered frame marker":      mutate(frameAt, 0x00),
			"clobbered plane marker":      mutate(walHeaderSizeV2, 0xFF),
			"flipped payload byte":        mutate(walHeaderSizeV2+3, data[walHeaderSizeV2+3]^0x10),
			"flipped CRC byte":            mutate(int(recs[0].end)-1, data[recs[0].end-1]^0x01),
			"frame marker on plane":       mutate(int(recs[2].end), walMarker),
			"unknown version":             mutate(5, 9),
			"wrong magic":                 mutate(0, 'X'),
			"plane record in a v1 header": append(append([]byte(nil), mutate(5, 1)[:walHeaderSize]...), data[walHeaderSizeV2:end]...),
		}
		overlong := []byte{walMarker, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
		if version >= 3 {
			overlong[0] = walMarkerFrames
			cases["v2 frame marker in v3"] = mutate(frameAt, walMarker)
			cases["zeroed record"] = append(append(slices.Clone(data[:frameAt]), make([]byte, recs[1].end-recs[0].end)...), data[recs[1].end:]...)
			cases["records behind a zero gap"] = append(append(slices.Clone(data[:end]), make([]byte, 100)...), data[walHeaderSizeV2:end]...)
		}
		cases["overlong varint"] = append(data[:end:end], overlong...)
		for name, d := range cases {
			if l, err := parseLog(d); err == nil {
				t.Errorf("v%d %s: replayed without error: %+v", version, name, l)
			}
		}

		// A flipped bit inside a frame: refused where frames are
		// checksummed, replayed as another cell id where they are not.
		at := frameAt + 1 // 300's first varint byte, behind the marker
		if version >= 3 {
			at++ // and the record's length
		}
		flipped := mutate(at, data[at]^0x04)
		l, err := parseLog(flipped)
		if version >= 3 && err == nil {
			t.Errorf("v3: a flipped byte in a frames record replayed: %v", l.Frames)
		}
		if version == 2 && (err != nil || l.Frames[0] == 300) {
			t.Errorf("v2: a flipped byte in a frame record: %v, %v; the format cannot tell, so it replays as another id", l, err)
		}
	}
}

// TestWALSyncs: a version 3 write first syncs a write still pending, so a
// crash never finds two records in flight, and Close syncs only a pending
// write, so closing a synced log costs no fsync. A version 1 log appends
// without a sync between writes.
func TestWALSyncs(t *testing.T) {
	for _, c := range []struct {
		version uint16
		want    int64
	}{{1, 1}, {3, 2}} {
		w, err := createWAL(filepath.Join(t.TempDir(), "wal"), c.version, 1, 0, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		fsyncs := telWALFsync.Count()
		if err := w.Append([]uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]uint64{2}); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if n := telWALFsync.Count() - fsyncs; n != c.want {
			t.Errorf("v%d: two appends, a sync and a close cost %d fsyncs, want %d", c.version, n, c.want)
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
	w, err := CreateWALExtending(path, 1, 0, 2, 0)
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
// the torn-tail contract — every crash image of an accepted log must give an
// accepted log holding a prefix of its records, never an error and never a
// record that was not written: cutting it short anywhere, and for version 3
// zeroing it from anywhere past the header or zeroing any sectors of its
// last record.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "wal")
	mixedLog(f, path, 2)
	v2, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// Version 3 seeds end a few zeros past the log: a whole preallocated
	// file would make every fuzzed input 64 KiB long.
	want, recs := mixedLog(f, path, 3)
	v3, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	end := recs[len(recs)-1].end
	v3 = v3[:end+16]
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
	if w, err = CreateWALExtending(path, 3, 9, 1, 0); err != nil {
		f.Fatal(err)
	}
	w.logPlane(walMarkerAdd, AppendQueries(nil, []qindex.Query{{ID: 4, Length: 3, Sketch: []uint64{1, 2, 1 << 60}}}))
	w.Close()
	tagged, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	tagged = tagged[:w.Size()+8]
	if _, err := parseLog(tagged); err == nil {
		f.Fatal("a log holding a query by its sketch was accepted")
	}
	if l, err := parseLog(v3); err != nil || !reflect.DeepEqual(*l, want) {
		f.Fatalf("the version 3 seed replays as %+v, %v", l, err)
	}
	f.Add(tagged)
	f.Add([]byte{})
	f.Add(v1)
	f.Add(v2)
	f.Add(v2[:len(v2)-3])
	f.Add(append(append([]byte(nil), v2...), walMarkerAdd, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)) // length far past the end
	f.Add(append(append([]byte(nil), v1...), v2[walHeaderSizeV2:]...))
	f.Add(v3)
	f.Add(v3[:walHeaderSizeV2+8])                                                // no record yet
	f.Add(append(slices.Clone(v3[:recs[len(recs)-2].end]), make([]byte, 40)...)) // the last record never landed
	torn := slices.Clone(v3)
	clear(torn[recs[4].end+512-recs[4].end%512 : recs[5].end]) // the big batch's later sectors lost
	f.Add(torn[:recs[5].end+8])

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
		// prefix parses a crash image of data and fails unless it holds a
		// prefix of l's records; it returns the image's log.
		prefix := func(what string, img []byte) *Log {
			p, err := parseLog(img)
			if err != nil {
				t.Fatalf("%s of an accepted log: %v", what, err)
			}
			if len(p.Frames) > len(l.Frames) || len(p.Plane) > len(l.Plane) ||
				!holdsPrefix(p, l, len(p.Frames), len(p.Plane)) {
				t.Fatalf("%s: records are not a prefix of the whole log's", what)
			}
			return p
		}
		step := 1 + len(data)/64
		for cut := len(data) - 1; cut >= 0; cut -= step {
			p := prefix(fmt.Sprintf("cut at %d", cut), data[:cut])
			if l.Version < 3 || cut < walHeaderSizeV2 {
				continue
			}
			z := append(data[:cut:cut], make([]byte, len(data)-cut)...)
			if q := prefix(fmt.Sprintf("zeros from %d", cut), z); !reflect.DeepEqual(q, p) {
				t.Fatalf("zeros from %d replay as %+v, the cut there as %+v", cut, q, p)
			}
		}
		if l.Version < 3 {
			return
		}
		// The last record, [start, end), and every subset of its sectors
		// lost: it replays whole or not at all.
		start, end := walHeaderSizeV2, walHeaderSizeV2
		for end < len(data) && data[end] != 0 {
			_, n, _ := framed(data[end:])
			if n == 0 || !crcValid(data[end:end+n]) {
				break
			}
			start, end = end, end+n
		}
		if start == end {
			return
		}
		before := prefix("the log before its last record", data[:start])
		first, n := start/512, (end-1)/512-start/512+1
		for mask := 1; mask < 1<<min(n, 6); mask++ {
			img := slices.Clone(data)
			for s := 0; s < n; s++ {
				if mask&(1<<s) != 0 {
					clear(img[max(start, (first+s)*512):min(end, (first+s+1)*512)])
				}
			}
			p := prefix(fmt.Sprintf("sectors %b of the last record lost", mask), img)
			if !reflect.DeepEqual(p, before) && !reflect.DeepEqual(p, l) {
				t.Fatalf("sectors %b of the last record lost: replayed part of it", mask)
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
