package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vdsms/internal/bitio"
	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
)

// sampleCheckpoint builds a checkpoint exercising every section of the
// format: both candidate kinds, signatures, sketches, reports and stats.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Meta: Meta{U: 4, D: 5, KeyFPS: 2},
		Engine: EngineState{
			Config: Config{
				K: 128, Seed: -7, Delta: 0.7, Lambda: 2, WindowFrames: 10,
				Order: 0, Method: 0, UseIndex: true,
			},
			Frame:  1234,
			CurIDs: []uint64{0, 1, math.MaxUint64, 42},
			Stats: Stats{
				Frames: 1234, Windows: 123,
				SketchCombines: 1, SketchCompares: 2, SigOrs: 3, SigTests: 4,
				ProbeComparisons: 5, SignatureSum: 6, CandidateSum: 7, Matches: 8,
				Shards: []ShardStats{{Probed: 9, Pruned: 10, Compared: 11}, {Compared: 3}},
			},
			// Two queries known by their sketches alone, as a version 1
			// checkpoint holds them, and one by its cells.
			Queries: []qindex.Query{
				{ID: 3, Length: 40, Sketch: []uint64{1, 2, 3}},
				{ID: 1, Length: 25, Sketch: []uint64{7, 0, math.MaxUint64}},
				{ID: -4, Length: 3, CellIDs: []uint64{300, 0, math.MaxUint64}},
			},
			Seq: []SeqCandidate{
				{
					StartFrame: 100, Windows: 3,
					Sigs:     []Signature{{QID: 1, Lo: []uint64{0xF0}, Hi: []uint64{0x10}}},
					Reported: []int{1},
				},
				{
					StartFrame: 110, Windows: 2,
					Sketch:  []uint64{5, 6, 7},
					Related: []int{1, 3},
				},
			},
			Geo: []GeoBucket{
				{
					StartFrame: 90, EndFrame: 130, Windows: 4,
					Sigs:    []Signature{{QID: 3, Lo: []uint64{1}, Hi: []uint64{0}}},
					Related: []int{3},
				},
			},
			GeoReported: []GeoReport{{QID: 1, Start: 90}, {QID: 3, Start: 100}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip diverges:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestCheckpointV1Reads: the version 1 layout, whose plane section holds K
// raw sketch values per query, still reads. The file is sampleCheckpoint as
// the version 1 writer wrote it, before the plane held cells.
func TestCheckpointV1Reads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1-sample.vckp"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleCheckpoint()
	want.Engine.Queries = want.Engine.Queries[:2]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("version 1 checkpoint reads as\n%+v\nwant\n%+v", got, want)
	}
	// Written again, it is the current version, and its sketch-only
	// queries keep their sketches.
	again, err := Read(bytes.NewReader(Marshal(got)))
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Errorf("rewritten version 1 checkpoint reads as %+v, %v", again, err)
	}
}

// TestCheckpointV1Plane: version 1's plane section reads to sketch-only
// queries, an empty one to nil as in version 2, and what it reads is
// written back as version 2 bytes that read the same. A query without
// frames or without a sketch value, which no plane accepts, is refused.
func TestCheckpointV1Plane(t *testing.T) {
	plane := func(length uint64, sketch ...uint64) func(*bitio.Writer) {
		return func(w *bitio.Writer) {
			w.WriteUE(1)
			w.WriteSE(-5)
			w.WriteUE(length)
			w.WriteUE(uint64(len(sketch)))
			for _, v := range sketch {
				w.WriteBytes(binary.BigEndian.AppendUint64(nil, v))
			}
			for range 3 { // no candidates, buckets or geo reports
				w.WriteUE(0)
			}
		}
	}
	empty := func(w *bitio.Writer) {
		for range 4 {
			w.WriteUE(0)
		}
	}
	for _, c := range []struct {
		name string
		tail func(*bitio.Writer)
		want []qindex.Query
		ok   bool
	}{
		{"empty", empty, nil, true},
		{"one query", plane(30, 7, math.MaxUint64), []qindex.Query{{ID: -5, Length: 30, Sketch: []uint64{7, math.MaxUint64}}}, true},
		{"no frames", plane(0, 7), nil, false},
		{"no sketch", plane(30), nil, false},
	} {
		ck, err := Read(bytes.NewReader(idleWithTail(t, 1, c.tail)))
		if (err == nil) != c.ok {
			t.Errorf("%s: Read error %v, want accepted=%v", c.name, err, c.ok)
			continue
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(ck.Engine.Queries, c.want) {
			t.Errorf("%s: plane reads as %#v, want %#v", c.name, ck.Engine.Queries, c.want)
		}
		if again, err := Read(bytes.NewReader(Marshal(ck))); err != nil || !reflect.DeepEqual(again, ck) {
			t.Errorf("%s: written back, reads as %+v, %v", c.name, again, err)
		}
	}
}

func TestCheckpointEmptySections(t *testing.T) {
	want := &Checkpoint{
		Engine: EngineState{
			Config: Config{K: 1, Delta: 0.5, Lambda: 1, WindowFrames: 1},
			Stats:  Stats{Shards: []ShardStats{{}}},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Engine.Config, want.Engine.Config) {
		t.Errorf("config: want %+v got %+v", want.Engine.Config, got.Engine.Config)
	}
	if len(got.Engine.Queries) != 0 || len(got.Engine.Seq) != 0 || len(got.Engine.Geo) != 0 {
		t.Errorf("empty sections came back non-empty: %+v", got.Engine)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one bit in the middle of the body: the trailer must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Error("bit flip in body not detected")
	}

	// Truncations anywhere must error, never panic or misread.
	for _, n := range []int{0, 5, 13, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("wrong magic accepted")
	}
}

// signed appends body's FNV-1a trailer, as Marshal does.
func signed(body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	return binary.BigEndian.AppendUint64(body, h.Sum64())
}

// TestReadStopsAtLayoutEnd: a re-signed checkpoint with anything after its
// last section but the last byte's zero padding is refused. Four bytes
// appended before the trailer once read back as the original state.
func TestReadStopsAtLayoutEnd(t *testing.T) {
	for _, ck := range []*Checkpoint{sampleCheckpoint(), idleCheckpoint()} {
		data := Marshal(ck)
		body := data[:len(data)-8]
		for _, junk := range [][]byte{{0xde, 0xad, 0xbe, 0xef}, {0, 0, 0, 0}, {0}} {
			if _, err := Read(bytes.NewReader(signed(append(bytes.Clone(body), junk...)))); err == nil {
				t.Errorf("%d bytes past the layout (%x) accepted", len(junk), junk)
			}
		}
	}
	// An idle checkpoint ends in the geo-report count's one bit, so the
	// bits after its last set bit are padding.
	body := bytes.Clone(Marshal(idleCheckpoint()))
	body = body[:len(body)-8]
	if body[len(body)-1]&1 != 0 {
		t.Fatal("the idle checkpoint has no padding")
	}
	body[len(body)-1] |= 1
	if _, err := Read(bytes.NewReader(signed(body))); err == nil {
		t.Error("a set padding bit accepted")
	}
}

// TestCheckpointKBound: a checkpoint whose trailer and fingerprint are
// valid but whose K is past minhash.MaxK is refused, before anything sizes
// an allocation by it.
func TestCheckpointKBound(t *testing.T) {
	for _, k := range []int{minhash.MaxK, minhash.MaxK + 1, math.MaxUint32} {
		ck := sampleCheckpoint()
		ck.Engine.Config.K = k
		var buf bytes.Buffer
		if err := Write(&buf, ck); err != nil {
			t.Fatal(err)
		}
		_, err := Read(bytes.NewReader(buf.Bytes()))
		if ok := k <= minhash.MaxK; (err == nil) != ok {
			t.Errorf("K=%d: Read error %v, want accepted=%v", k, err, ok)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := sampleCheckpoint()
	fp := Fingerprint(base.Meta, base.Engine.Config)
	perturb := []func(*Meta, *Config){
		func(m *Meta, c *Config) { m.U++ },
		func(m *Meta, c *Config) { m.D-- },
		func(m *Meta, c *Config) { m.KeyFPS = 3 },
		func(m *Meta, c *Config) { c.K++ },
		func(m *Meta, c *Config) { c.Seed++ },
		func(m *Meta, c *Config) { c.Delta += 0.01 },
		func(m *Meta, c *Config) { c.Lambda = 1.5 },
		func(m *Meta, c *Config) { c.WindowFrames++ },
		func(m *Meta, c *Config) { c.Order = 1 },
		func(m *Meta, c *Config) { c.Method = 1 },
		func(m *Meta, c *Config) { c.UseIndex = !c.UseIndex },
		func(m *Meta, c *Config) { c.DisablePrune = !c.DisablePrune },
	}
	for i, p := range perturb {
		m, c := base.Meta, base.Engine.Config
		p(&m, &c)
		if Fingerprint(m, c) == fp {
			t.Errorf("perturbation %d does not change the fingerprint", i)
		}
	}
}

func TestCompatibilityErrorNamesFields(t *testing.T) {
	m := Meta{U: 4, D: 5, KeyFPS: 2}
	c := Config{K: 800, Delta: 0.7, Lambda: 2, WindowFrames: 10}
	c2 := c
	c2.K = 400
	c2.Delta = 0.9
	err := CompatibilityError(m, m, c, c2)
	if err == nil {
		t.Fatal("mismatched configs produced no error")
	}
	for _, field := range []string{"K", "Delta"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("error %q does not name mismatched field %s", err, field)
		}
	}
	if err := CompatibilityError(m, m, c, c); err != nil {
		t.Errorf("equal configs produced error: %v", err)
	}
}

// TestHeaderGolden pins the byte layout of the checkpoint header (magic,
// version, fingerprint) and the WAL header for a fixed configuration. If
// this test fails, the on-disk format changed: bump FormatVersion and
// regenerate the constants below — never ship a silent layout drift.
func TestHeaderGolden(t *testing.T) {
	c := &Checkpoint{
		Meta: Meta{U: 4, D: 5, KeyFPS: 2},
		Engine: EngineState{
			Config: Config{
				K: 800, Seed: 0, Delta: 0.7, Lambda: 2, WindowFrames: 10,
				Order: 0, Method: 0, UseIndex: true,
			},
		},
	}
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	// magic "VCKP" | version 0x0002 | FNV-1a fingerprint of meta+config.
	// Pinning the fingerprint bytes also pins the fingerprint algorithm:
	// changing it would orphan every deployed checkpoint.
	const wantHeader = "56434b50000268b80b607d7494f1"
	if got := hex.EncodeToString(buf.Bytes()[:14]); got != wantHeader {
		t.Errorf("checkpoint header drifted:\ngot  %s\nwant %s", got, wantHeader)
	}

	// WAL header golden: magic | version | fingerprint | base frame.
	dir := t.TempDir()
	w, err := CreateWAL(dir+"/wal", 0x0123456789abcdef, 77)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(dir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	const wantWAL = "5643574c00010123456789abcdef000000000000004d"
	if got := hex.EncodeToString(data); got != wantWAL {
		t.Errorf("WAL header drifted:\ngot  %s\nwant %s", got, wantWAL)
	}

	// Version 3: the same fields, the extended checkpoint's identity, and
	// zeros to the end of the preallocated file; then one frames record.
	if w, err = CreateWALExtending(dir+"/wal", 0x0123456789abcdef, 77, 0xfedcba9876543210, 0); err != nil {
		t.Fatal(err)
	}
	w.Append([]uint64{300, 9})
	w.Close()
	if data, err = os.ReadFile(dir + "/wal"); err != nil {
		t.Fatal(err)
	}
	const wantV3 = "5643574c00030123456789abcdef000000000000004dfedcba9876543210" + "a803ac02090f48f286"
	if got := hex.EncodeToString(data[:w.Size()]); got != wantV3 || len(data) != 64<<10 || !allZero(data[w.Size():]) {
		t.Errorf("version 3 WAL drifted:\ngot  %s (file of %d bytes)\nwant %s", got, len(data), wantV3)
	}
}
