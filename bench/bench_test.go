package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vdsms/internal/mpeg"
)

const testSeed = 42

var (
	testCorpusOnce sync.Once
	testCorpusVal  *corpus
	testCorpusErr  error
)

// testCorpus is a small corpus shared by the tests that only read it.
func testCorpus(t *testing.T) *corpus {
	t.Helper()
	testCorpusOnce.Do(func() { testCorpusVal, testCorpusErr = buildCorpus(testSeed, 3) })
	if testCorpusErr != nil {
		t.Fatal(testCorpusErr)
	}
	return testCorpusVal
}

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	a := testCorpus(t)
	again, err := buildCorpus(testSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildCorpus(testSeed+1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != again.digest {
		t.Errorf("same seed, digests %s and %s", a.digest, again.digest)
	}
	if a.digest == other.digest {
		t.Errorf("seeds %d and %d share digest %s", testSeed, testSeed+1, a.digest)
	}
	for n := 0; n < 8; n++ {
		if !bytes.Equal(a.spliced(n), again.spliced(n)) {
			t.Errorf("same seed, spliced clip %d differs", n)
		}
		if bytes.Equal(a.spliced(n), other.spliced(n)) {
			t.Errorf("seeds %d and %d share spliced clip %d", testSeed, testSeed+1, n)
		}
		if n > 0 && bytes.Equal(a.spliced(n), a.spliced(n-1)) {
			t.Errorf("spliced clips %d and %d are the same", n-1, n)
		}
	}
}

func TestCorpusDecodes(t *testing.T) {
	c := testCorpus(t)
	if len(c.segments) == 0 || len(c.truth) == 0 || len(c.shorts) != 3 {
		t.Fatalf("corpus has %d segments, %d inserts, %d shorts", len(c.segments), len(c.truth), len(c.shorts))
	}
	frames := func(what string, clip io.Reader) int {
		dcs, _, err := mpeg.ReadAllDC(clip)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return len(dcs)
	}
	for i, seg := range c.segments {
		if n := frames("segment", bytes.NewReader(seg)); n != segmentFrames {
			t.Errorf("segment %d decodes to %d frames, want %d", i, n, segmentFrames)
		}
	}
	for n := 0; n < 64; n++ {
		if got := frames("spliced clip", &clipReader{c: c, n: n}); got != spliceSlices*spliceRun {
			t.Errorf("spliced clip %d decodes to %d frames, want %d", n, got, spliceSlices*spliceRun)
		}
	}
	for _, ins := range c.truth {
		if ins.End > c.frames {
			t.Errorf("insert %+v runs past the %d frames kept", ins, c.frames)
		}
	}
}

func TestPercentiles(t *testing.T) {
	vs := []float64{40, 10, 30, 20, 50} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {95, 48}, {100, 50},
	} {
		if got := percentile(vs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if vs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4}); q1 != 1.75 || q3 != 3.25 {
		t.Errorf("quartiles = %v, %v, want 1.75, 3.25", q1, q3)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	if s := summarise([]float64{1, 2, 3}); s.Median != 2 || s.N != 3 {
		t.Errorf("summarise = %+v", s)
	}
}

func TestSelfTimes(t *testing.T) {
	// A unit of 100 with three real children, one of which has a child of
	// its own and two shadows that ran after the unit had ended; plus an
	// off-path span with no root.
	spans := []span{
		{ID: 1, Name: "bench.segment", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mpeg.decode", Start: 5, End: 35},
		{ID: 3, Parent: 1, Name: "feature.vector", Start: 35, End: 40},
		{ID: 4, Parent: 1, Name: "core.window", Start: 40, End: 95},
		{ID: 5, Parent: 4, Name: "core.inner", Start: 50, End: 60},
		{ID: 6, Parent: 4, Name: "minhash.sketch", Start: 100, End: 108, Shadow: true},
		{ID: 7, Parent: 4, Name: "qindex.probe", Start: 108, End: 138, Shadow: true},
		{ID: 8, Name: "snapshot.wal_sync", Start: 140, End: 150},
		{ID: 9, Parent: 1, Name: "late.child", Start: 96, End: 120}, // clipped to the parent's interval
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 30 - 5 - 55 - 4, // the glue between the calls
		2: 30,
		3: 5,
		4: 55 - 10 - 8 - 30,
		5: 10, 6: 8, 7: 30, 8: 10, 9: 24,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Shadows slower than the work they repeat leave nothing, not a debt.
	if got := selfTimes([]span{
		{ID: 1, Name: "core.window", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "qindex.probe", Start: 10, End: 25, Shadow: true},
	})[1]; got != 0 {
		t.Errorf("self time under an oversized shadow = %d, want 0", got)
	}

	layers := layerSelf(spans, "bench.segment")
	for layer, want := range map[string]int64{
		"bench": 6, "mpeg": 30, "feature": 5, "core": 7 + 10, "minhash": 8, "qindex": 30, "late": 24,
	} {
		if layers[layer] != want {
			t.Errorf("layer %s = %d, want %d", layer, layers[layer], want)
		}
	}
	if _, ok := layers["snapshot"]; ok {
		t.Error("an off-path span counted towards the unit's layers")
	}
	if got := sumByName(spans)["mpeg.decode"]; got.ns != 30 || got.calls != 1 {
		t.Errorf("sumByName = %+v", got)
	}
}

func TestCompare(t *testing.T) {
	timing := func(v, q1, q3 float64) metric { return metric{Value: v, Q1: q1, Q3: q3, N: 20} }
	for _, tc := range []struct {
		name    string
		a, b    metric
		bounded bool
		want    string
	}{
		{"within the bound", timing(100, 98, 102), timing(108, 106, 110), true, "agree"},
		{"beyond the bound", timing(100, 98, 102), timing(120, 118, 122), true, "DISAGREE"},
		{"quartiles wider than the bound", timing(100, 90, 110), timing(101, 99, 103), true, "unresolved"},
		{"no bound", timing(100, 98, 102), timing(150, 148, 152), false, "info"},
		{"equal counts", metric{Value: 8000, Exact: true}, metric{Value: 8000, Exact: true}, false, "agree (exact)"},
		{"unequal counts", metric{Value: 8000, Exact: true}, metric{Value: 8001, Exact: true}, true, "DISAGREE"},
	} {
		if got := compare(tc.a, tc.b, 0.1, tc.bounded); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQuickRun is the smoke run: every workload, untraced and traced, on a
// small corpus. It asserts names, units and correctness, never a timing.
func TestQuickRun(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	o := options{seed: testSeed, seconds: 1, quick: true, outDir: t.TempDir()}
	rep, err := run(o, "", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range rep.Workloads {
		if bf.Workloads[i].Name != out.Workload || bf.Workloads[i].Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, out.Workload, workloads[i].why)
		}
		if out.Failed != 0 || !out.Correct || out.Attempted == 0 {
			t.Errorf("%s: %d of %d failed, correct=%v", out.Workload, out.Failed, out.Attempted, out.Correct)
		}
		check := func(kind string, defs []metricDef, got []metric, neverZero bool) {
			seen := make(map[string]int)
			for _, m := range got {
				seen[m.Name]++
			}
			for _, d := range defs {
				if seen[d.Name] != 1 {
					t.Errorf("%s: %s metric %s emitted %d times", out.Workload, kind, d.Name, seen[d.Name])
				}
				delete(seen, d.Name)
				for _, m := range got {
					if m.Name != d.Name {
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", out.Workload, m.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (neverZero && m.Value == 0) {
						t.Errorf("%s: %s = %v", out.Workload, m.Name, m.Value)
					}
				}
			}
			for name := range seen {
				t.Errorf("%s: %s metric %s is not in BENCHMARK.json", out.Workload, kind, name)
			}
		}
		check("end-to-end", bf.EndToEnd, out.EndToEnd, true)
		check("per-layer", bf.PerLayer, out.PerLayer, false)
		if len(out.spans) == 0 || len(out.Shares) == 0 {
			t.Errorf("%s: traced run kept %d spans and %d layer shares", out.Workload, len(out.spans), len(out.Shares))
		}

		line, err := json.Marshal(out.driverResult())
		if err != nil {
			t.Fatal(err)
		}
		var result map[string]json.RawMessage
		if err := json.Unmarshal(line, &result); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := result[k]; !ok {
				t.Errorf("%s: result line lacks %q", out.Workload, k)
			}
		}
		if len(result) != 4 {
			t.Errorf("%s: result line has %d keys, want 4", out.Workload, len(result))
		}
	}

	dir, err := rep.write(o.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "spans.json", "summary.md"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
	path := filepath.Join(dir, "metrics.json")
	if ok, err := agreeFiles(io.Discard, "../BENCHMARK.json", path, path); err != nil || !ok {
		t.Errorf("a result set does not agree with itself: ok=%v err=%v", ok, err)
	}
	if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
